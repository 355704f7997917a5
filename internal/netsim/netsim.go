// Package netsim models the datacenter network as a fluid, flow-level
// system: transfers are flows traversing a path of links, and the rate of
// every active flow is the progressive-filling max-min fair allocation over
// link capacities. When the flow set changes, rates are recomputed and every
// flow's completion is re-predicted.
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
// The closed-loop sweeps of Sections 3.1–3.3 churn hundreds to thousands of
// concurrent flows through one fabric, and every arrival or completion
// triggers a reallocation, so this is the simulator's hottest path. The
// solver is component-local: every link lists the fabric slots of the flows
// crossing it, and a reallocation walks from the links whose flow set
// changed through that membership to mark exactly the connected
// component(s) the change can reach. Only those flows are re-solved; flows
// in untouched components keep their rates.
//
// A reallocation touches each flow's memory as few times as it can. The
// per-flow state every pass reads (remaining bytes, rate, the predicted
// completion time and its sequence number, the walk mark) sits in one array
// parallel to the flow list, and each flow's path sits at a fixed stride in
// a second array, so the passes stream through contiguous memory instead
// of chasing a pointer per flow. Every active flow was settled at the
// previous reallocation instant, so one settle step (now-last).Seconds()
// serves them all, and each flow is settled once. A link crossed by a single
// flow carries no solver state: its fair share is its capacity for one
// flow, cached in the flow's hop, so the walk does not queue it and the
// filling pass never charges it. A shared link's fair share is computed
// once per filling round, and while some shared link's share lies below
// every private capacity in the component, the round's bottleneck share is
// found without scanning the flows' hops. Per-link solver state lives on
// the Link itself, stamped with a walk epoch instead of rebuilt in a map.
//
// Each filling round fixes every unfixed flow that sees the round's
// smallest share on some hop, all at once, with every share taken before
// any of them is charged. Equal shares are common (identical NICs, two
// links split the same way), and fixing one tied link before another would
// make the last bits of the rates depend on the order the flows are taken
// in. A swap-delete moves the last flow into the freed slot without
// re-solving that flow's component, so an order-dependent solver would
// disagree with a fresh solve after the move.
//
// The fast path is bit-exact with the from-scratch progressive-filling
// solver: components never interact (a flow's rate depends only on links it
// can reach through shared flows), no round depends on flow order, a
// private link's cached share equals capRem/1 exactly, every flow is
// settled exactly once per reallocation at the rate it held, and kept
// predictions equal what a recomputation would have produced. The property
// tests and FuzzFabricChurn cross-check
// incremental against from-scratch allocations on random churn sequences,
// TestTimedChurnHash pins a clock-advancing churn of about 2,000 flows, and
// internal/core's trace goldens pin whole experiment runs to the bit. With
// invariants enabled, every solve also checks that rates are non-negative
// and that no link of the solved component carries more than its effective
// capacity, and every reallocation that the fabric's one event sits at the
// minimum key.
//
// # One calendar entry per fabric
//
// Only the earliest prediction can fire next, so a fabric keeps exactly one
// event in the kernel's calendar, however many flows are in flight: the
// completion of the flow whose prediction has the smallest (time, sequence
// number) key. A prediction takes a fresh kernel sequence number
// (Engine.TakeSeq) only when its time actually moves — exactly where a
// per-flow completion event would have been rescheduled — and reschedule,
// which visits every flow anyway, tracks the minimum key in the same pass
// and moves the one event there (Engine.ScheduleSeq, RescheduleSeq). Every
// sequence number is consumed in the order per-flow events consumed them,
// and the one event sits where the earliest per-flow event sat, so it fires
// at the same instant and in the same order against every other event, and
// the number of events fired is unchanged.
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
	fab   *Fabric
	name  string
	cap   Bandwidth
	capFn func(nflows int) Bandwidth

	// flows holds the fabric slots of the active flows crossing this link,
	// in no particular order; each flow's hop records its position here, so
	// joining and leaving are O(1) and allocation-free in steady state. A
	// link that never carries two flows at once keeps its list in flowBuf.
	flows   []int32
	flowBuf [1]int32

	// Solver scratch, owned by the fabric and kept only while the link is
	// shared (more than one flow): a private link's fair share is its
	// capacity, which its flow carries in its hop. unfix, capRem and share
	// are valid only for the walk whose epoch matches, which is what lets
	// the solver skip rebuilding per-link state in a map on every call.
	unfix  int32   // flows crossing this link not yet fixed by the solver
	epoch  uint64  // walk that last reached this link
	capRem float64 // capacity not yet claimed by fixed flows
	share  float64 // capRem/unfix as of the current filling round
}

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link's nominal capacity.
func (l *Link) Capacity() Bandwidth { return l.cap }

// Flows returns the number of active flows crossing the link.
func (l *Link) Flows() int { return len(l.flows) }

// SetCapacityFn installs a concurrency-dependent effective capacity. When
// set, it overrides the nominal capacity whenever at least one flow is
// active. fn must be a pure function of n: the fabric may evaluate it once
// per change of the link's flow count rather than on every solve. Effective
// capacity must be positive for every n ≥ 1; the fabric validates each value
// it evaluates and panics with the link name on a curve that dips to zero
// or below, since such a link would otherwise stall every flow crossing it
// forever.
func (l *Link) SetCapacityFn(fn func(nflows int) Bandwidth) {
	l.capFn = fn
	l.refreshPrivate()
}

// effectiveCap returns the capacity available to n concurrent flows.
func (l *Link) effectiveCap(n int) Bandwidth {
	if l.capFn != nil {
		return l.capFn(n)
	}
	return l.cap
}

// positiveCap returns l's effective capacity for its current flow count,
// panicking with the link name if the capacity function gave a
// non-positive value.
func (l *Link) positiveCap() float64 {
	c := float64(l.effectiveCap(len(l.flows)))
	if !(c > 0) {
		panic(fmt.Sprintf(
			"netsim: link %q effective capacity %v with %d flows; capacity functions must be positive for every n ≥ 1",
			l.name, Bandwidth(c), len(l.flows)))
	}
	return c
}

// refreshPrivate brings the hop of a private link's one flow up to date
// with the link's capacity; it is called whenever the link's flow count or
// capacity changes.
func (l *Link) refreshPrivate() {
	if len(l.flows) == 1 {
		l.fab.hopOf(l.flows[0], l).cap1 = l.positiveCap()
	}
}

// Flow is one active transfer. The solver's view of it lives in its
// fabric slot (Fabric.state and Fabric.hops), not here.
type Flow struct {
	fab   *Fabric
	index int // slot in Fabric.flows and Fabric.state; -1 once removed
	path  []*Link
	// Short paths live inline, so starting a flow allocates nothing and the
	// caller's variadic path stays on its stack.
	pathBuf        [3]*Link
	completed      bool
	finalRate      float64 // the rate the flow left the fabric with
	finalRemaining float64 // the bytes it left undelivered
	done           sim.Signal
}

// hop is one link of a flow's path as the solver sees it. While the flow
// is the link's only one, cap1 holds the link's effective capacity for one
// flow, which is its fair share for as long as the flow is unfixed (exactly
// what capRem/unfix would give), so the solver never touches the link;
// on a shared link cap1 is 0.
type hop struct {
	l    *Link
	cap1 float64
	pos  int32 // the flow's position in l.flows
	n    int32 // the length of the path
}

// flowState is the part of a flow that every reallocation reads. The fabric
// keeps it in one array parallel to its flow list, so the per-flow passes
// stream through contiguous memory instead of chasing a pointer per flow.
// Every active flow is settled as of Fabric.settledAt, the instant of the
// last reallocation, so the flow needs no clock of its own.
type flowState struct {
	remaining float64       // bytes
	rate      float64       // bytes/sec, assigned by the solver
	at        time.Duration // predicted completion; < 0 for none (stalled, or not yet predicted)
	seq       uint64        // engine sequence number taken when at last moved
	epoch     uint64        // walk that last reached this flow
}

// st returns the state of an active flow.
func (f *Flow) st() *flowState { return &f.fab.state[f.index] }

// Rate returns the flow's current max-min fair rate in bytes/sec; once the
// flow has finished, the rate it finished at.
func (f *Flow) Rate() Bandwidth {
	if f.index < 0 {
		return Bandwidth(f.finalRate)
	}
	return Bandwidth(f.st().rate)
}

// Remaining returns the bytes not yet delivered (as of the last settle).
func (f *Flow) Remaining() float64 {
	if f.index < 0 {
		return f.finalRemaining
	}
	return f.st().remaining
}

// settled returns the flow's remaining bytes after moving dt seconds at its
// current rate.
func (s *flowState) settled(dt float64) float64 {
	rem := s.remaining
	if dt > 0 && s.rate > 0 {
		rem -= s.rate * dt
		if rem < 0 {
			rem = 0
		}
	}
	return rem
}

// Fabric owns the links and active flows of one simulated network and keeps
// the max-min allocation current as flows come and go.
type Fabric struct {
	eng   *sim.Engine
	flows []*Flow
	state []flowState // state[i] belongs to flows[i]

	// hops[i*stride:][:n] is the path of flows[i], n hops long; stride is
	// the longest path seen, so every slot's hops sit at a fixed offset.
	hops   []hop
	stride int

	// settledAt is the instant of the last reallocation, as of which every
	// active flow is settled: flows started since have moved no bytes yet.
	settledAt time.Duration

	// Incremental-solver state: links whose flow set changed since the last
	// solve, plus reusable scratch buffers so a reallocation allocates
	// nothing in steady state.
	epoch      uint64
	dirtyLinks []*Link
	reached    []*Link // shared links marked by the current walk, in visit order
	minCap1    float64 // smallest private-link capacity on the marked flows
	unfixed    []int32 // slots of the flows being solved

	// next is the fabric's one calendar entry: the completion of the
	// earliest prediction, keyed by that flow's (at, seq), which nextFlow
	// holds; nil while no flow holds a prediction. onFire is f.fire, bound
	// once.
	next     *sim.Event
	nextFlow *Flow
	onFire   func()
}

// route returns the hops of the flow in slot i.
func (f *Fabric) route(i int32) []hop {
	base := int(i) * f.stride
	return f.hops[base : base+int(f.hops[base].n)]
}

// hopOf returns the hop of the flow in slot i that crosses l.
func (f *Fabric) hopOf(i int32, l *Link) *hop {
	r := f.route(i)
	for k := range r {
		if r[k].l == l {
			return &r[k]
		}
	}
	panic("netsim: link not on flow path")
}

// widen re-lays the hop table out with room for n hops per slot.
func (f *Fabric) widen(n int) {
	hops := make([]hop, len(f.state)*n, cap(f.state)*n)
	for i := range f.state {
		copy(hops[i*n:], f.route(int32(i)))
	}
	f.hops, f.stride = hops, n
}

// NewFabric creates an empty network bound to the engine.
func NewFabric(eng *sim.Engine) *Fabric {
	f := &Fabric{eng: eng}
	f.onFire = f.fire
	return f
}

// NewLink creates a link with the given nominal capacity (> 0).
func (f *Fabric) NewLink(name string, capacity Bandwidth) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: link %q capacity %v", name, capacity))
	}
	l := &Link{fab: f, name: name, cap: capacity}
	l.flows = l.flowBuf[:0]
	return l
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
	l.refreshPrivate()
	f.markDirty(l)
	f.reallocate()
}

// ActiveFlows returns the number of in-flight flows.
func (f *Fabric) ActiveFlows() int { return len(f.flows) }

// Transfer moves size bytes across the given path, blocking the calling
// process until the last byte arrives, and returns the elapsed virtual time.
func (f *Fabric) Transfer(p *sim.Proc, size int64, path ...*Link) time.Duration {
	if size <= 0 {
		return 0
	}
	start := p.Now()
	f.StartFlow(size, path...).done.Wait(p)
	return p.Now() - start
}

// TransferFlat is the flat-actor form of Transfer: it injects the flow and
// arms then to run at the instant the last byte arrives, without parking a
// goroutine. A zero-size transfer completes synchronously (then runs before
// TransferFlat returns, and the returned flow is nil), mirroring Transfer's
// immediate return.
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
// event-driven users and tests. A path must name each link at most once,
// and only links of this fabric.
func (f *Fabric) StartFlow(size int64, path ...*Link) *Flow {
	if len(path) == 0 {
		panic("netsim: flow with empty path")
	}
	for i, l := range path {
		if l.fab != f {
			panic(fmt.Sprintf("netsim: link %q belongs to another fabric", l.name))
		}
		for _, prev := range path[:i] {
			if prev == l {
				panic(fmt.Sprintf("netsim: link %q appears twice in one flow path", l.name))
			}
		}
	}
	fl := &Flow{fab: f, index: len(f.flows)}
	fl.path = append(fl.pathBuf[:0], path...)
	if len(path) > f.stride {
		f.widen(len(path))
	}
	slot := int32(fl.index)
	f.flows = append(f.flows, fl)
	f.state = append(f.state, flowState{remaining: float64(size), at: -1})
	f.hops = append(f.hops, make([]hop, f.stride)...)
	r := f.hops[int(slot)*f.stride:][:len(path)]
	for i, l := range path {
		r[i] = hop{l: l, pos: int32(len(l.flows)), n: int32(len(path))}
		l.flows = append(l.flows, slot)
		switch len(l.flows) {
		case 1:
			l.refreshPrivate()
		case 2:
			f.hopOf(l.flows[0], l).cap1 = 0
		}
		f.markDirty(l)
	}
	f.reallocate()
	return fl
}

// Abandon withdraws an incomplete flow started with StartFlow: the flow is
// removed, its done signal never fires, and its bandwidth is redistributed.
// Abandoning a completed (or already abandoned) flow is a no-op.
func (f *Fabric) Abandon(fl *Flow) {
	if fl.completed {
		return
	}
	s := &f.state[fl.index]
	s.remaining = s.settled(f.step())
	f.remove(fl)
	f.reallocate()
}

func (f *Fabric) remove(fl *Flow) {
	if fl.index < 0 {
		return
	}
	fl.completed = true
	i, last := int32(fl.index), int32(len(f.flows)-1)
	s := &f.state[i]
	// The flow's prediction leaves with it; the reallocation that follows
	// every removal re-arms the fabric's event.
	fl.finalRate, fl.finalRemaining = s.rate, s.remaining
	// Leave each link's flow list by swap-delete.
	for _, h := range f.route(i) {
		l, end := h.l, len(h.l.flows)-1
		if moved := l.flows[end]; moved != i {
			l.flows[h.pos] = moved
			f.hopOf(moved, l).pos = h.pos
		}
		l.flows = l.flows[:end]
		l.refreshPrivate()
		f.markDirty(l)
	}
	// O(1) swap-delete of the slot: the last flow moves into it.
	if i != last {
		f.flows[i], f.state[i] = f.flows[last], f.state[last]
		f.flows[i].index = int(i)
		copy(f.hops[int(i)*f.stride:], f.hops[int(last)*f.stride:][:f.stride])
		for _, h := range f.route(i) {
			h.l.flows[h.pos] = i
		}
	}
	f.flows[last], f.state[last] = nil, flowState{}
	f.flows, f.state = f.flows[:last], f.state[:last]
	clear(f.hops[int(last)*f.stride:])
	f.hops = f.hops[:int(last)*f.stride]
	fl.index = -1
}

// markDirty records that a link's flow set (and hence its effective
// capacity) changed, so the component containing it must be re-solved.
// Each change is followed by its own reallocation, which empties the list;
// a link listed twice would start no second walk, as the first marked its
// component.
func (f *Fabric) markDirty(l *Link) {
	f.dirtyLinks = append(f.dirtyLinks, l)
}

// reallocate brings rates and completion events up to date after a change.
// Rate recomputation runs only when some link's flow set actually changed;
// the stale-prediction path (a completion event firing at the same instant
// rates moved) needs only a reschedule, because an unchanged flow set
// re-solves to bit-identical rates.
func (f *Fabric) reallocate() {
	if len(f.flows) == 0 {
		f.dirtyLinks = f.dirtyLinks[:0]
		f.arm(-1)
		return
	}
	step := f.step()
	solved := len(f.dirtyLinks) > 0
	if solved {
		f.solve(step)
		f.dirtyLinks = f.dirtyLinks[:0]
		step = 0
	}
	f.reschedule(step)
	f.settledAt = f.eng.Now()
	if inv := f.eng.Invariants(); inv != nil {
		if solved {
			f.checkSolve(inv)
		}
		f.checkNext(inv)
	}
}

// step is the time since the last reallocation in seconds: the one settle
// step every active flow is due.
func (f *Fabric) step() float64 { return (f.eng.Now() - f.settledAt).Seconds() }

// solve recomputes max-min fair rates by progressive filling for every flow
// whose connected component contains a dirty link, first settling every
// flow by step seconds at the rate it held. It walks from the dirty links
// through link membership, so its cost is proportional to the components a
// change can reach; flows of clean components are never re-solved and keep
// their rates: allocations in one component are independent of every
// other, so skipping them is exact, not an approximation.
func (f *Fabric) solve(step float64) {
	// Mark the dirty components. Dirty links no longer crossed by any flow
	// (a departed flow's private segment, an idle link whose capacity
	// changed) start no walk; a dirty private link starts it at its flow.
	f.newWalk()
	for _, l := range f.dirtyLinks {
		switch {
		case len(l.flows) == 1:
			if i := l.flows[0]; f.state[i].epoch != f.epoch {
				f.mark(i)
			}
		case len(l.flows) > 1 && l.epoch != f.epoch:
			f.visit(l)
		}
	}
	f.walk(0)
	for _, l := range f.reached {
		l.capRem = l.positiveCap()
		l.unfix = int32(len(l.flows))
	}
	// Collect the marked flows. Every flow is settled here at the rate it is
	// about to lose (or, outside the component, keeps).
	f.unfixed = f.unfixed[:0]
	for i := range f.state {
		s := &f.state[i]
		s.remaining = s.settled(step)
		if s.epoch == f.epoch {
			f.unfixed = append(f.unfixed, int32(i))
		}
	}
	// Progressive filling. Each round, the bottleneck share is the smallest
	// fair share any unfixed flow sees on its path, and every unfixed flow
	// with a hop at that share is fixed at it, all in the same round. A
	// shared link's share is computed once per round, before any of the
	// round's flows is charged; a private link's share is its capacity.
	// Fixing the round's flows together makes the allocation independent of
	// the order the flows are taken in.
	unfixed := f.unfixed
	for len(unfixed) > 0 {
		share := f.bottleneck(unfixed)
		n := 0
		for _, i := range unfixed {
			r := f.route(i)
			if !atShare(r, share) {
				unfixed[n] = i
				n++
				continue
			}
			f.fix(i, r, share)
		}
		unfixed = unfixed[:n]
	}
}

// bottleneck computes one filling round's fair share on every shared link
// the unfixed flows cross and returns the smallest share any of them sees.
// When some shared link's share is below every private capacity in the
// component, no private hop can hold the minimum, so the flows' hops are
// not scanned.
func (f *Fabric) bottleneck(unfixed []int32) float64 {
	low := math.Inf(1)
	for _, l := range f.reached {
		if l.unfix > 0 {
			l.share = l.capRem / float64(l.unfix)
			if l.share < low {
				low = l.share
			}
		}
	}
	if low < f.minCap1 {
		return low
	}
	for _, i := range unfixed {
		for _, h := range f.route(i) {
			if h.cap1 != 0 && h.cap1 < low {
				low = h.cap1
			}
		}
	}
	return low
}

// atShare reports whether a flow with hops r has a hop whose fair share
// this round is share. A shared link an unfixed flow crosses always has a
// share computed for the round.
func atShare(r []hop, share float64) bool {
	for _, h := range r {
		s := h.cap1
		if s == 0 {
			s = h.l.share
		}
		if s == share {
			return true
		}
	}
	return false
}

// fix assigns the flow in slot i, whose hops are r, its final rate and
// charges it to the shared links it crosses. Private links need no charge:
// their flow is now fixed, so the solver never reads them again.
func (f *Fabric) fix(i int32, r []hop, share float64) {
	f.state[i].rate = share
	for _, h := range r {
		if h.cap1 == 0 {
			l := h.l
			l.capRem -= share
			if l.capRem < 0 {
				l.capRem = 0
			}
			l.unfix--
		}
	}
}

// checkSolve is the solver's invariant check, run after every reallocation
// that solved when the engine checks invariants: every rate is
// non-negative, and no link of the solved component carries more than its
// effective capacity, up to a relative rounding tolerance.
func (f *Fabric) checkSolve(inv *sim.Invariants) {
	const tol = 1e-9
	for i := range f.state {
		s := &f.state[i]
		if !(s.rate >= 0) {
			inv.Checkf(false, "netsim: flow rate %v is negative", s.rate)
		}
		if s.epoch != f.epoch {
			continue
		}
		for _, h := range f.route(int32(i)) {
			if l := h.l; len(l.flows) == 1 && s.rate > float64(l.effectiveCap(1))*(1+tol) {
				inv.Checkf(false, "netsim: flow on private link %q at %v B/s, over its capacity %v",
					l.name, s.rate, l.effectiveCap(1))
			}
		}
	}
	for _, l := range f.reached {
		sum := 0.0
		for _, i := range l.flows {
			sum += f.state[i].rate
		}
		if c := float64(l.effectiveCap(len(l.flows))); sum > c*(1+tol) {
			inv.Checkf(false, "netsim: link %q carries %v B/s over %d flows, over its capacity %v",
				l.name, sum, len(l.flows), Bandwidth(c))
		}
	}
}

// newWalk starts a walk: nothing is marked under its fresh epoch.
func (f *Fabric) newWalk() {
	f.epoch++
	f.reached = f.reached[:0]
	f.minCap1 = math.Inf(1)
}

// visit marks the shared link l as reached by the current walk and queues
// it.
func (f *Fabric) visit(l *Link) {
	l.epoch = f.epoch
	f.reached = append(f.reached, l)
}

// mark marks the flow in slot i as reached by the current walk and queues
// the shared links of its path. A private link leads to no other flow, so
// it is not queued.
func (f *Fabric) mark(i int32) {
	f.state[i].epoch = f.epoch
	for _, h := range f.route(i) {
		switch {
		case h.cap1 != 0:
			if h.cap1 < f.minCap1 {
				f.minCap1 = h.cap1
			}
		case h.l.epoch != f.epoch:
			f.visit(h.l)
		}
	}
}

// walk marks every flow crossing a link queued at index i or later, queueing
// the further links those flows cross, until the components of the queued
// links are fully marked.
func (f *Fabric) walk(i int) {
	for ; i < len(f.reached); i++ {
		for _, j := range f.reached[i].flows {
			if f.state[j].epoch != f.epoch {
				f.mark(j)
			}
		}
	}
}

// reschedule settles every flow by step seconds (0 when solve already
// settled them), brings its prediction in line with its remaining bytes and
// rate, and arms the fabric's one completion event at the earliest
// prediction.
// Every flow is visited because every flow's remaining bytes moved: its
// prediction is recomputed from the settled value, exactly as a
// from-scratch pass would. A prediction takes a fresh sequence number only
// when its time actually moved, exactly where a per-flow completion event
// would have been rescheduled, so the one event fires where the earliest
// per-flow event would have, in the same order against every other event.
func (f *Fabric) reschedule(step float64) {
	now := f.eng.Now()
	first, firstAt, firstSeq := -1, time.Duration(0), uint64(0)
	for i := range f.state {
		s := &f.state[i]
		if step > 0 {
			s.remaining = s.settled(step)
		}
		if s.rate <= 0 {
			// Stalled; a future reallocate will revive it.
			s.at = -1
			continue
		}
		var at time.Duration
		if math.IsInf(s.rate, 1) || s.remaining <= 0.5 {
			at = now
		} else {
			at = now + time.Duration(s.remaining/s.rate*float64(time.Second))
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
		if s.at != at {
			s.at, s.seq = at, f.eng.TakeSeq()
		}
		if first < 0 || s.at < firstAt || (s.at == firstAt && s.seq < firstSeq) {
			first, firstAt, firstSeq = i, s.at, s.seq
		}
	}
	f.arm(first)
}

// arm keeps the fabric's one calendar entry at the prediction of the flow
// in slot i, the earliest; i < 0 means no flow holds one. Sequence numbers
// are unique and taken with each new prediction time, so an unchanged seq
// means an unchanged key and the event stays where it is.
func (f *Fabric) arm(i int) {
	if i < 0 {
		if f.next != nil {
			f.eng.CancelRecycle(f.next)
		}
		f.next, f.nextFlow = nil, nil
		return
	}
	s := &f.state[i]
	f.nextFlow = f.flows[i]
	switch {
	case f.next == nil:
		f.next = f.eng.ScheduleSeq(s.at, s.seq, f.onFire)
	case f.next.Seq() != s.seq:
		f.eng.RescheduleSeq(f.next, s.at, s.seq)
	}
}

// checkNext is the calendar invariant, run after every reallocation when
// the engine checks invariants: the fabric's one pending event sits at the
// minimum (at, seq) over the flows' predictions, and nextFlow holds it.
func (f *Fabric) checkNext(inv *sim.Invariants) {
	first := -1
	for i := range f.state {
		s := &f.state[i]
		if s.at < 0 {
			continue
		}
		if first < 0 || s.at < f.state[first].at || (s.at == f.state[first].at && s.seq < f.state[first].seq) {
			first = i
		}
	}
	if first < 0 {
		inv.Checkf(f.next == nil, "netsim: completion event pending while no flow holds a prediction")
		return
	}
	s := &f.state[first]
	if f.next == nil || f.next.Canceled() {
		inv.Checkf(false, "netsim: no completion event pending for the earliest prediction (%v, %d)", s.at, s.seq)
		return
	}
	inv.Checkf(f.next.Time() == s.at && f.next.Seq() == s.seq && f.nextFlow == f.flows[first],
		"netsim: completion event at (%v, %d), earliest prediction (%v, %d)", f.next.Time(), f.next.Seq(), s.at, s.seq)
}

// fire runs when the fabric's event comes due: the flow holding the
// earliest prediction completes, or re-predicts if rates moved at this same
// instant. Its prediction is spent, so whatever it predicts next takes a
// fresh sequence number.
func (f *Fabric) fire() {
	f.eng.Recycle(f.next)
	fl := f.nextFlow
	f.next, f.nextFlow = nil, nil
	s := &f.state[fl.index]
	s.at = -1
	rem := s.settled(f.step())
	if rem > 0.5 {
		if !math.IsInf(s.rate, 1) {
			// Prediction went stale (rates changed at this same instant);
			// reallocate will settle the flow and reschedule it.
			f.reallocate()
			return
		}
		// An unconstrained flow delivers instantly; zero elapsed time moved
		// no bytes in settle, so finish it by hand rather than ping-pong.
		rem = 0
	}
	s.remaining = rem
	f.remove(fl)
	fl.done.Fire()
	f.reallocate()
}
