// Package netsim models the datacenter network as a fluid, flow-level
// system: transfers are flows traversing a path of links, and the rate of
// every active flow is the progressive-filling max-min fair allocation over
// link capacities. When the flow set changes, rates are recomputed and every
// flow's completion event is rescheduled.
//
// Links may carry a concurrency-dependent effective capacity
// (SetCapacityFn), which is how the calibrated "black box" overheads of the
// paper's storage front-ends are expressed: the paper measured aggregate
// service bandwidth that grows sub-linearly and eventually peaks as client
// count rises, without being able to attribute the loss to any internal
// component (Section 3.1).
//
// # Allocation fast path
//
// The closed-loop sweeps of Sections 3.1–3.3 churn hundreds of concurrent
// flows through one fabric, and every arrival or completion triggers a
// reallocation, so this is the simulator's hottest path. The solver is
// component-local: every link keeps an intrusive list of the flows crossing
// it, and a reallocation walks from the links whose flow set changed through
// that membership to mark exactly the connected component(s) the change can
// reach. Only those flows are re-solved; flows in untouched components keep
// their rates. Per-link solver state lives on the Link itself, stamped with
// a walk epoch instead of rebuilt in a map. Completion events are only
// re-created when the predicted completion time actually moved, and retired
// events are recycled through the kernel's event pool.
//
// The fast path is bit-exact with the from-scratch progressive-filling
// solver: components never interact (a flow's rate depends only on links it
// can reach through shared flows), the marked flows are taken in arrival
// order so tie-breaking between equally-loaded links is unchanged, every
// flow is settled exactly once per reallocation at the rate it held, and
// kept events fire at exactly the time a recomputation would have produced.
// The property tests and FuzzFabricChurn cross-check incremental against
// from-scratch allocations on random churn sequences, and internal/core's
// trace goldens pin whole experiment runs to the bit.
package netsim

import (
	"fmt"
	"math"
	"time"

	"azureobs/internal/sim"
)

// Bandwidth is expressed in bytes per second. The paper reports MB/s with
// decimal megabytes (1 Gbit/s Ethernet ≙ 125 MB/s), so MBps = 1e6 B/s.
type Bandwidth float64

// Common bandwidth units.
const (
	Bps  Bandwidth = 1
	KBps           = 1000 * Bps
	MBps           = 1000 * KBps
	GBps           = 1000 * MBps
)

// MB is a convenience for sizing transfers in decimal megabytes.
const MB int64 = 1_000_000

// GB is a convenience for sizing transfers in decimal gigabytes.
const GB int64 = 1_000_000_000

// Link is one capacity-constrained network segment: a VM NIC, a storage
// front-end's egress trunk, a rack uplink.
type Link struct {
	name  string
	cap   Bandwidth
	capFn func(nflows int) Bandwidth

	nflows int     // active flows crossing this link
	flows  *member // head of the list of those flows' memberships

	// Solver scratch, owned by the fabric. unfix and capRem are valid only
	// for the walk whose epoch matches, which is what lets the solver skip
	// rebuilding per-link state in a map on every call.
	epoch  uint64  // walk that last reached this link
	unfix  int     // flows crossing this link not yet fixed by the solver
	capRem float64 // capacity not yet claimed by fixed flows
	dirty  bool    // flow set changed since the last solve
}

// member threads one flow onto the flow list of one link of its path. The
// list is doubly linked through pprev (the address of the pointer that points
// at this member), so insertion and removal are O(1) and allocation-free:
// members live inline in their Flow.
type member struct {
	fl    *Flow
	next  *member
	pprev **member
}

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link's nominal capacity.
func (l *Link) Capacity() Bandwidth { return l.cap }

// Flows returns the number of active flows crossing the link.
func (l *Link) Flows() int { return l.nflows }

// SetCapacityFn installs a concurrency-dependent effective capacity. When
// set, it overrides the nominal capacity whenever at least one flow is
// active. Effective capacity must be positive for every n ≥ 1; the solver
// validates this at allocation time and panics with the link name on a
// curve that dips to zero or below, since such a link would otherwise stall
// every flow crossing it forever.
func (l *Link) SetCapacityFn(fn func(nflows int) Bandwidth) { l.capFn = fn }

// effectiveCap returns the capacity available to n concurrent flows.
func (l *Link) effectiveCap(n int) Bandwidth {
	if l.capFn != nil {
		return l.capFn(n)
	}
	return l.cap
}

// Flow is one active transfer.
type Flow struct {
	// Every reallocation reads these for every flow, so they lead the
	// struct, packed together.
	epoch     uint64  // walk that last reached this flow
	remaining float64 // bytes
	rate      float64 // bytes/sec, assigned by the solver
	updated   time.Duration
	complete  *sim.Event
	path      []*Link

	// Short paths and their memberships live inline, so starting a flow
	// allocates neither and the caller's variadic path stays on its stack.
	pathBuf   [3]*Link
	memb      []member // memb[i] threads the flow onto path[i]'s flow list
	membBuf   [3]member
	completed bool
	done      sim.Signal
	onFire    func() // cached completion callback (one closure per flow)
	index     int    // position in Fabric.flows; -1 once removed
}

// Rate returns the flow's current max-min fair rate in bytes/sec.
func (f *Flow) Rate() Bandwidth { return Bandwidth(f.rate) }

// Remaining returns the bytes not yet delivered (as of the last settle).
func (f *Flow) Remaining() float64 { return f.remaining }

// settle credits the flow with the bytes moved at its current rate since it
// was last settled.
func (f *Flow) settle(now time.Duration) {
	dt := (now - f.updated).Seconds()
	if dt > 0 && f.rate > 0 {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	f.updated = now
}

// Fabric owns the links and active flows of one simulated network and keeps
// the max-min allocation current as flows come and go.
type Fabric struct {
	eng   *sim.Engine
	flows []*Flow

	// Incremental-solver state: links whose flow set changed since the last
	// solve, plus reusable scratch buffers so a reallocation allocates
	// nothing in steady state.
	epoch      uint64
	dirtyLinks []*Link
	reached    []*Link // links marked by the current walk, in visit order
	unfixed    []*Flow
}

// NewFabric creates an empty network bound to the engine.
func NewFabric(eng *sim.Engine) *Fabric {
	return &Fabric{eng: eng}
}

// NewLink creates a link with the given nominal capacity (> 0).
func (f *Fabric) NewLink(name string, capacity Bandwidth) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: link %q capacity %v", name, capacity))
	}
	return &Link{name: name, cap: capacity}
}

// SetLinkCapacity changes a link's nominal capacity at runtime — the chaos
// engine's rack partitions squeeze NICs to an epsilon rate and restore them
// on repair. The component containing the link re-solves, settling flows in
// progress at their old rates first; completion events move accordingly.
// Capacity must stay positive (use a small epsilon, not zero). Links driven
// by SetCapacityFn ignore the nominal value.
func (f *Fabric) SetLinkCapacity(l *Link, capacity Bandwidth) {
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: link %q capacity %v", l.name, capacity))
	}
	if capacity == l.cap {
		return
	}
	l.cap = capacity
	f.markDirty(l)
	f.reallocate()
}

// ActiveFlows returns the number of in-flight flows.
func (f *Fabric) ActiveFlows() int { return len(f.flows) }

// Transfer moves size bytes across the given path, blocking the calling
// process until the last byte arrives, and returns the elapsed virtual time.
// A killed process abandons the transfer; the flow is withdrawn and the
// bandwidth it held is redistributed.
func (f *Fabric) Transfer(p *sim.Proc, size int64, path ...*Link) time.Duration {
	if size <= 0 {
		return 0
	}
	start := p.Now()
	fl := f.StartFlow(size, path...)
	defer func() {
		if rec := recover(); rec != nil {
			f.abandon(fl)
			panic(rec)
		}
	}()
	fl.done.Wait(p)
	return p.Now() - start
}

// TransferFlat is the flat-actor form of Transfer: it injects the flow and
// arms then to run at the instant the last byte arrives, without parking a
// goroutine. A zero-size transfer completes synchronously (then runs before
// TransferFlat returns, and the returned flow is nil), mirroring Transfer's
// immediate return. The returned flow is what an aborted request hands to
// Abandon.
func (f *Fabric) TransferFlat(a *sim.Actor, size int64, then func(), path ...*Link) *Flow {
	if size <= 0 {
		then()
		return nil
	}
	fl := f.StartFlow(size, path...)
	fl.done.WaitFlat(a, then)
	return fl
}

// StartFlow injects a flow without blocking. The returned flow's done signal
// fires on completion. Most callers want Transfer; StartFlow exists for
// event-driven users and tests. A path must name each link at most once.
func (f *Fabric) StartFlow(size int64, path ...*Link) *Flow {
	if len(path) == 0 {
		panic("netsim: flow with empty path")
	}
	for i, l := range path {
		for _, prev := range path[:i] {
			if prev == l {
				panic(fmt.Sprintf("netsim: link %q appears twice in one flow path", l.name))
			}
		}
	}
	fl := &Flow{remaining: float64(size), updated: f.eng.Now()}
	fl.onFire = func() { f.onComplete(fl) }
	fl.path = append(fl.pathBuf[:0], path...)
	if len(path) <= len(fl.membBuf) {
		fl.memb = fl.membBuf[:len(path)]
	} else {
		fl.memb = make([]member, len(path))
	}
	fl.index = len(f.flows)
	f.flows = append(f.flows, fl)
	for i, l := range path {
		m := &fl.memb[i]
		*m = member{fl: fl, next: l.flows, pprev: &l.flows}
		if m.next != nil {
			m.next.pprev = &m.next
		}
		l.flows = m
		l.nflows++
		f.markDirty(l)
	}
	f.reallocate()
	return fl
}

// Abandon withdraws an incomplete flow started with StartFlow: the flow is
// removed, its done signal never fires, and its bandwidth is redistributed.
// Abandoning a completed (or already abandoned) flow is a no-op. Transfer
// callers never need this — a killed sender abandons implicitly.
func (f *Fabric) Abandon(fl *Flow) { f.abandon(fl) }

// abandon withdraws an incomplete flow (killed sender).
func (f *Fabric) abandon(fl *Flow) {
	if fl.completed {
		return
	}
	fl.settle(f.eng.Now())
	f.remove(fl)
	f.reallocate()
}

func (f *Fabric) remove(fl *Flow) {
	if fl.index < 0 {
		return
	}
	fl.completed = true
	if fl.complete != nil {
		// Lazy cancel: the event stays queued until the kernel pops it, and
		// CancelRecycle hands its allocation back to the pool at that point.
		f.eng.CancelRecycle(fl.complete)
		fl.complete = nil
	}
	// O(1) swap-delete: the flow knows its own slot.
	i, last := fl.index, len(f.flows)-1
	f.flows[i] = f.flows[last]
	f.flows[i].index = i
	f.flows[last] = nil
	f.flows = f.flows[:last]
	fl.index = -1
	for i, l := range fl.path {
		m := &fl.memb[i]
		*m.pprev = m.next
		if m.next != nil {
			m.next.pprev = m.pprev
		}
		*m = member{}
		l.nflows--
		f.markDirty(l)
	}
}

// markDirty records that a link's flow set (and hence its effective
// capacity) changed, so the component containing it must be re-solved.
func (f *Fabric) markDirty(l *Link) {
	if !l.dirty {
		l.dirty = true
		f.dirtyLinks = append(f.dirtyLinks, l)
	}
}

func (f *Fabric) clearDirty() {
	for _, l := range f.dirtyLinks {
		l.dirty = false
	}
	f.dirtyLinks = f.dirtyLinks[:0]
}

// reallocate brings rates and completion events up to date after a change.
// Rate recomputation runs only when some link's flow set actually changed;
// the stale-prediction path (a completion event firing at the same instant
// rates moved) needs only a reschedule, because an unchanged flow set
// re-solves to bit-identical rates.
func (f *Fabric) reallocate() {
	if len(f.flows) == 0 {
		f.clearDirty()
		return
	}
	if len(f.dirtyLinks) > 0 {
		f.solve()
		f.clearDirty()
	}
	f.reschedule()
}

// solve recomputes max-min fair rates by progressive filling for every flow
// whose connected component contains a dirty link. It walks from the dirty
// links through link membership, so its cost is proportional to the
// components a change can reach; flows of clean components are never
// visited and keep their rates: allocations in one component are
// independent of every other, so skipping them is exact, not an
// approximation.
func (f *Fabric) solve() {
	// Mark the dirty components. Dirty links no longer crossed by any flow
	// (a departed flow's private segment, an idle link whose capacity
	// changed) start no walk.
	f.epoch++
	f.reached = f.reached[:0]
	for _, l := range f.dirtyLinks {
		if l.nflows > 0 && l.epoch != f.epoch {
			f.visit(l)
		}
	}
	f.walk(0)
	for _, l := range f.reached {
		c := float64(l.effectiveCap(l.nflows))
		if !(c > 0) {
			panic(fmt.Sprintf(
				"netsim: link %q effective capacity %v with %d flows; capacity functions must be positive for every n ≥ 1",
				l.name, Bandwidth(c), l.nflows))
		}
		l.capRem = c
		l.unfix = l.nflows
	}
	// Take the marked flows in arrival order, which is what keeps bottleneck
	// tie-breaking identical to the from-scratch solver, settling each at the
	// rate it is about to lose.
	now := f.eng.Now()
	f.unfixed = f.unfixed[:0]
	for _, fl := range f.flows {
		if fl.epoch == f.epoch {
			fl.settle(now)
			f.unfixed = append(f.unfixed, fl)
		}
	}
	// Progressive filling. Each round, the bottleneck is the link
	// whose fair share for its unfixed flows is smallest — scanned in flow
	// arrival order (not map order) so ties resolve stably — and every
	// unfixed flow crossing it is fixed at that share.
	unfixed := f.unfixed
	for len(unfixed) > 0 {
		var bottleneck *Link
		share := math.Inf(1)
		for _, fl := range unfixed {
			for _, l := range fl.path {
				if l.unfix == 0 {
					continue
				}
				s := l.capRem / float64(l.unfix)
				if s < share {
					share = s
					bottleneck = l
				}
			}
		}
		if bottleneck == nil {
			// No constraining link (cannot happen with non-empty paths).
			for _, fl := range unfixed {
				fl.rate = math.Inf(1)
			}
			break
		}
		if share < 0 {
			share = 0
		}
		n := 0
		for _, fl := range unfixed {
			onBottleneck := false
			for _, l := range fl.path {
				if l == bottleneck {
					onBottleneck = true
					break
				}
			}
			if !onBottleneck {
				unfixed[n] = fl
				n++
				continue
			}
			fl.rate = share
			for _, l := range fl.path {
				l.capRem -= share
				if l.capRem < 0 {
					l.capRem = 0
				}
				l.unfix--
			}
		}
		unfixed = unfixed[:n]
	}
	// Drop the scratch references so finished flows can be collected.
	clear(f.unfixed)
}

// visit marks l as reached by the current walk and queues it.
func (f *Fabric) visit(l *Link) {
	l.epoch = f.epoch
	f.reached = append(f.reached, l)
}

// walk marks every flow crossing a link queued at index i or later, queueing
// the further links those flows cross, until the components of the queued
// links are fully marked.
func (f *Fabric) walk(i int) {
	for ; i < len(f.reached); i++ {
		for m := f.reached[i].flows; m != nil; m = m.next {
			fl := m.fl
			if fl.epoch == f.epoch {
				continue
			}
			fl.epoch = f.epoch
			for _, l := range fl.path {
				if l.epoch != f.epoch {
					f.visit(l)
				}
			}
		}
	}
}

// Components returns the number of connected components in the active flow
// graph: flows are connected when their paths share a link. This is the
// kernel-sharding partition oracle — flows in different components can never
// influence each other's rates (a solve touches exactly one component), so a
// workload whose flow graph stays partitioned into k components is safe to
// split across up to k simulation domains, one fabric per domain, with no
// cross-domain mail. Links no flow currently crosses count toward no
// component. The query walks link membership with its own epoch, so it
// never disturbs allocation.
func (f *Fabric) Components() int {
	f.epoch++
	f.reached = f.reached[:0]
	n := 0
	for _, fl := range f.flows {
		if fl.epoch != f.epoch {
			n++
			i := len(f.reached)
			f.visit(fl.path[0])
			f.walk(i)
		}
	}
	return n
}

// SameComponent reports whether two active flows share a connected component
// — whether any chain of overlapping paths couples their rate allocations.
// Flows in different components are independent: domain-sharding them apart
// cannot change either one's trace. A finished flow is in no component.
func (f *Fabric) SameComponent(a, b *Flow) bool {
	if a.index < 0 || b.index < 0 {
		return false
	}
	f.epoch++
	f.reached = f.reached[:0]
	f.visit(a.path[0])
	f.walk(0)
	return b.epoch == f.epoch
}

// reschedule settles every flow solve did not (a no-op for those it did) and
// brings its completion event in line with its remaining bytes and rate.
// Every flow is visited because every flow's remaining bytes moved: its
// prediction is recomputed from the settled value, exactly as a
// from-scratch pass would. An event is re-created only when the predicted
// completion time actually moved; an unchanged prediction keeps the
// already-scheduled event, and retired events return to the kernel pool.
func (f *Fabric) reschedule() {
	now := f.eng.Now()
	for _, fl := range f.flows {
		fl.settle(now)
		if fl.rate <= 0 {
			// Stalled; a future reallocate will revive it.
			if fl.complete != nil {
				f.eng.CancelRecycle(fl.complete)
				fl.complete = nil
			}
			continue
		}
		var at time.Duration
		if math.IsInf(fl.rate, 1) || fl.remaining <= 0.5 {
			at = now
		} else {
			at = now + time.Duration(fl.remaining/fl.rate*float64(time.Second))
			if at <= now {
				// The prediction rounded down to a zero (or negative)
				// duration while bytes remain outstanding. Scheduling at
				// `now` would fire, settle zero elapsed time, and reallocate
				// right back here — a same-instant ping-pong that never
				// drains the flow. One nanosecond is below any reportable
				// timescale and guarantees progress.
				at = now + 1
			}
		}
		if fl.complete != nil {
			if fl.complete.Time() == at {
				continue
			}
			// Sift the pending event to its new slot in place. The event
			// takes a fresh sequence number, exactly as the old
			// cancel/recycle/schedule round trip did, so traces stay
			// bit-identical while the hot reallocation path skips the heap
			// removal and free-list churn entirely.
			f.eng.Reschedule(fl.complete, at)
			continue
		}
		fl.complete = f.eng.Schedule(at, fl.onFire)
	}
}

func (f *Fabric) onComplete(fl *Flow) {
	ev := fl.complete
	fl.complete = nil
	if ev != nil {
		f.eng.Recycle(ev)
	}
	fl.settle(f.eng.Now())
	if fl.remaining > 0.5 {
		if !math.IsInf(fl.rate, 1) {
			// Prediction went stale (rates changed at this same instant);
			// reallocate will reschedule.
			f.reallocate()
			return
		}
		// An unconstrained flow delivers instantly; zero elapsed time moved
		// no bytes in settle, so finish it by hand rather than ping-pong.
		fl.remaining = 0
	}
	f.remove(fl)
	fl.done.Fire()
	f.reallocate()
}
