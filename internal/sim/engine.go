// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock through a priority queue of events.
// Simulated activities can be expressed either as plain scheduled callbacks
// (Engine.Schedule / Engine.After) or as processes (Engine.Spawn): ordinary
// Go functions running on their own goroutines that block on kernel
// primitives such as Proc.Sleep, Signal.Wait or Queue.Get.
//
// Determinism: at most one goroutine — the kernel or exactly one process —
// runs at any instant. Control is handed over synchronously through
// unbuffered channels, and simultaneous events fire in schedule order
// (ties broken by a monotonically increasing sequence number). Two runs of
// the same program with the same seeds produce identical traces.
//
// The calendar is a hand-rolled 4-ary min-heap of *Event ordered by
// (time, sequence), with lazy deletion: Cancel marks the event and the pop
// loop discards marked entries, so the high-churn reschedule patterns of the
// network solver cost O(1) per cancel instead of an O(log n) removal. See
// DESIGN.md §10 for the data-structure rationale and the determinism
// argument.
package sim

import (
	"fmt"
	"time"
)

// Event is a scheduled callback. It is returned by the scheduling methods so
// the caller can Cancel it before it fires (e.g. a transfer whose completion
// time must be recomputed when network rates change).
//
// Daemon events model background activity (environment processes such as
// host degradation): they fire like any other event while the simulation is
// alive, but do not by themselves keep Run going — Run returns once only
// daemon events remain.
type Event struct {
	at  time.Duration
	seq uint64
	fn  func()

	// pfn/proc are the closure-free form used for kernel-internal process
	// events (start, wake): pfn is a method expression like (*Proc).wakeup —
	// a package-level value — so scheduling a sleep or spawn allocates no
	// closure. act is the same for actor wakes: the event runs act.step.
	// Exactly one of fn, pfn and act is set.
	pfn  func(*Proc)
	proc *Proc
	act  *Actor

	index    int // heap index; -1 once popped
	canceled bool
	daemon   bool
	pooled   bool // sitting in the engine's free list (Recycle called)
	reclaim  bool // engine-owned: recycled automatically once it leaves the heap
}

// Time reports the virtual time at which the event is (or was) scheduled.
func (ev *Event) Time() time.Duration { return ev.at }

// Seq reports the event's sequence number: among events scheduled for the
// same time, the lower seq fires first.
func (ev *Event) Seq() uint64 { return ev.seq }

// Canceled reports whether Cancel was called on the event.
func (ev *Event) Canceled() bool { return ev.canceled }

// The calendar heap is 4-ary: children of slot i live at 4i+1..4i+4. A wider
// node trades deeper compare fans on the way down for roughly half the tree
// depth, which wins on the pop-heavy pattern of a simulation calendar (every
// event is popped exactly once, while sift-up after push usually stops after
// one level because times are mostly appended in near order). The heap is
// specialized to events — no container/heap interface calls, no any
// round-trips — and each slot carries the (at, seq) sort key inline, so the
// sift loops compare contiguous memory and only touch the Event (to update
// its slot index, for Reschedule's sift-in-place) when an entry actually
// moves.
type heapEntry struct {
	at  time.Duration
	seq uint64
	ev  *Event
}

// before is the calendar's total order: earlier time first, ties broken by
// schedule sequence. It is the one comparison all sift loops inline.
func (a heapEntry) before(b heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// heapPush appends ev and restores the heap order upward.
func (e *Engine) heapPush(ev *Event) {
	h := e.events
	i := len(h)
	nv := heapEntry{at: ev.at, seq: ev.seq, ev: ev}
	h = append(h, nv)
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if p.before(nv) {
			break
		}
		h[i] = p
		p.ev.index = i
		i = parent
	}
	h[i] = nv
	ev.index = i
	e.events = h
	if len(h) > e.eventsHigh {
		e.eventsHigh = len(h)
	}
}

// heapPop removes and returns the earliest event.
func (e *Engine) heapPop() *Event {
	h := e.events
	root := h[0].ev
	root.index = -1
	n := len(h) - 1
	last := h[n]
	h[n] = heapEntry{}
	h = h[:n]
	e.events = h
	if n > 0 {
		h[0] = last
		last.ev.index = 0
		e.heapSiftDown(0)
	}
	return root
}

// heapSiftDown restores heap order from slot i toward the leaves.
func (e *Engine) heapSiftDown(i int) {
	h := e.events
	n := len(h)
	nv := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		mv := h[first]
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if cv := h[c]; cv.before(mv) {
				m, mv = c, cv
			}
		}
		if nv.before(mv) {
			break
		}
		h[i] = mv
		mv.ev.index = i
		i = m
	}
	h[i] = nv
	nv.ev.index = i
}

// heapSiftUp restores heap order from slot i toward the root.
func (e *Engine) heapSiftUp(i int) {
	h := e.events
	nv := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if p.before(nv) {
			break
		}
		h[i] = p
		p.ev.index = i
		i = parent
	}
	h[i] = nv
	nv.ev.index = i
}

// The event free list is capped adaptively: at least minEventPool (absorbing
// ordinary churn spikes such as a 192-flow reallocation storm), growing with
// the calendar's own high-water mark so a cell whose steady state keeps, say,
// 1M wake events in flight can retire and re-schedule them all through the
// pool instead of thrashing alloc/free at a fixed 4096. maxEventPoolCap
// bounds the pool so a one-off spike can still be released to the GC rather
// than pinned forever.
const (
	minEventPool    = 4096
	maxEventPoolCap = 1 << 21
)

// poolCap returns the free list's current capacity limit.
func (e *Engine) poolCap() int {
	c := e.eventsHigh
	if c < minEventPool {
		c = minEventPool
	}
	if c > maxEventPoolCap {
		c = maxEventPoolCap
	}
	return c
}

// Engine is a discrete-event simulation kernel. The zero value is not ready
// for use; construct one with NewEngine.
type Engine struct {
	now     time.Duration
	events  []heapEntry // 4-ary min-heap by (at, seq)
	seq     uint64
	running bool
	stopped bool

	// procs counts live (spawned, not yet finished) non-daemon processes,
	// for leak detection in Drained.
	procs int

	// flats counts live (started, not yet finished) non-daemon flat actors.
	// Like procs, a live flat actor is foreground work: it may be parked on a
	// signal with no event of its own pending, waiting for someone else's
	// event to fire it.
	flats int

	// foreground counts pending non-daemon, non-canceled events; Run stops
	// when it reaches zero. Cancel decrements it immediately even though the
	// canceled event stays queued until lazily popped.
	foreground int

	// dead counts canceled events still occupying heap slots. When they
	// outnumber the live events the heap is compacted in one O(n) pass, so
	// a cancel-heavy burst cannot degrade every subsequent pop.
	dead int

	// fired counts executed events, exposed for instrumentation and tests.
	fired uint64

	// pendingPanic carries a panic raised inside a process goroutine back to
	// the kernel goroutine, so it surfaces from Run() on the caller's stack.
	pendingPanic *procPanic

	// pool holds recycled Event structs for reuse by the scheduling methods.
	// High-churn callers (the kernel's own wake events, a netsim fabric's
	// completion event) return events here via Recycle instead of leaving
	// one garbage Event per churn event. Capped at poolCap().
	pool []*Event

	// eventsHigh is the calendar's high-water mark (pending entries,
	// including corpses awaiting lazy deletion); it sizes the free list.
	eventsHigh int

	// idle holds parked workers: goroutines (with their handoff channel
	// pairs) whose process finished and which the next Spawn reuses instead
	// of starting a fresh goroutine. Drained when Run/RunUntil returns so an
	// abandoned engine leaks no goroutines.
	idle []*worker

	// Worker-pool accounting, exposed for the simbench observability record
	// and pool-leak guards.
	procsSpawned   uint64
	workersCreated uint64
	workersReused  uint64
	workersLive    int
	workersPeak    int

	// inv is the invariant harness; nil unless EnableInvariants was called
	// (or SetDefaultInvariants flipped the package default before NewEngine).
	inv *Invariants
}

type procPanic struct {
	value any
	stack []byte
	proc  string
}

func (e *Engine) checkPanic() {
	if pp := e.pendingPanic; pp != nil {
		e.pendingPanic = nil
		panic(fmt.Sprintf("sim: panic in process %q: %v\n%s", pp.proc, pp.value, pp.stack))
	}
}

// NewEngine returns an engine with the clock at zero and an empty calendar.
func NewEngine() *Engine {
	e := &Engine{}
	if defaultInvariants.Load() != 0 {
		e.EnableInvariants(true)
	}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// EventsFired returns the number of events executed so far.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Pending returns the number of live scheduled, not-yet-fired events.
// Canceled corpses awaiting their lazy pop are excluded: they can never
// fire, so counting them would overstate the queue in invariant checks,
// pool-cap reasoning and bench output whenever a cancel-heavy workload
// leaves the calendar full of dead entries.
func (e *Engine) Pending() int { return len(e.events) - e.dead }

// LiveProcs returns the number of spawned processes that have not finished.
func (e *Engine) LiveProcs() int { return e.procs }

// LiveActors returns the number of started flat actors that have not
// finished.
func (e *Engine) LiveActors() int { return e.flats }

// FreeEvents returns the number of events currently parked in the free list.
func (e *Engine) FreeEvents() int { return len(e.pool) }

// ProcsSpawned returns the number of processes ever spawned — each one would
// have been a fresh goroutine before worker reuse.
func (e *Engine) ProcsSpawned() uint64 { return e.procsSpawned }

// WorkersCreated returns the number of worker goroutines actually started.
func (e *Engine) WorkersCreated() uint64 { return e.workersCreated }

// WorkersReused returns the number of Spawns served by a parked worker.
func (e *Engine) WorkersReused() uint64 { return e.workersReused }

// WorkersPeak returns the high-water mark of live worker goroutines; it
// tracks peak process concurrency, not total spawns, unless the pool leaks.
func (e *Engine) WorkersPeak() int { return e.workersPeak }

// Schedule arranges for fn to run at absolute virtual time at. Scheduling in
// the past panics: the simulated world cannot rewrite history.
func (e *Engine) Schedule(at time.Duration, fn func()) *Event {
	return e.schedule(at, fn, false)
}

// ScheduleDaemon schedules a daemon event: it fires normally but does not
// keep Run alive on its own.
func (e *Engine) ScheduleDaemon(at time.Duration, fn func()) *Event {
	return e.schedule(at, fn, true)
}

func (e *Engine) schedule(at time.Duration, fn func(), daemon bool) *Event {
	return e.scheduleOwned(at, fn, daemon, false)
}

// scheduleOwned is schedule plus the reclaim flag: a reclaimed event belongs
// to the engine and returns to the free list on its own as soon as it leaves
// the heap — right before its callback runs, or at the lazy pop that
// discards it after a cancel. Only kernel-internal events are engine-owned;
// external callers hold references and must keep explicit Recycle control.
func (e *Engine) scheduleOwned(at time.Duration, fn func(), daemon, reclaim bool) *Event {
	return e.enqueue(Event{at: at, fn: fn, daemon: daemon, reclaim: reclaim})
}

// scheduleProc schedules a kernel-internal process event: pfn is a method
// expression (no closure allocation) applied to p when the event fires. All
// such events are engine-owned (reclaim): they recycle themselves, so the
// wake event a sleep retires is immediately reusable for the next sleep.
func (e *Engine) scheduleProc(at time.Duration, pfn func(*Proc), p *Proc, daemon bool) *Event {
	return e.enqueue(Event{at: at, pfn: pfn, proc: p, daemon: daemon, reclaim: true})
}

// scheduleActor schedules an actor's wake event: like scheduleProc, it
// carries its target instead of a closure and is engine-owned.
func (e *Engine) scheduleActor(at time.Duration, a *Actor) *Event {
	return e.enqueue(Event{at: at, act: a, daemon: a.daemon, reclaim: true})
}

// enqueue stamps ev with the next sequence number and pushes it onto the
// calendar.
func (e *Engine) enqueue(ev Event) *Event {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", ev.at, e.now))
	}
	ev.seq = e.TakeSeq()
	return e.push(ev)
}

// TakeSeq consumes the next sequence number, the tie-breaker every
// scheduling call takes, and returns it. A caller that keeps many
// predictions but arms only the earliest takes a seq for each prediction
// where a Schedule or Reschedule would have, then arms the winner with
// ScheduleSeq or RescheduleSeq: the calendar then orders it exactly as the
// per-prediction event would have been ordered.
func (e *Engine) TakeSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// ScheduleSeq is Schedule with a sequence number taken earlier by TakeSeq:
// the event fires where a Schedule made at the moment seq was taken would
// have fired. Scheduling in the past panics, as does a seq not yet taken.
func (e *Engine) ScheduleSeq(at time.Duration, seq uint64, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if seq >= e.seq {
		panic(fmt.Sprintf("sim: schedule with seq %d not yet taken", seq))
	}
	return e.push(Event{at: at, seq: seq, fn: fn})
}

// push copies ev, already stamped with its sequence number, into a pooled
// event and puts it on the calendar.
func (e *Engine) push(ev Event) *Event {
	p := e.alloc()
	*p = ev
	e.heapPush(p)
	if !ev.daemon {
		e.foreground++
	}
	return p
}

// alloc pops an Event from the free list, or mints one.
func (e *Engine) alloc() *Event {
	if n := len(e.pool); n > 0 {
		ev := e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		return ev
	}
	return &Event{}
}

// After arranges for fn to run d from now. Negative d panics.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	return e.Schedule(e.now+d, fn)
}

// AfterDaemon arranges a daemon event d from now.
func (e *Engine) AfterDaemon(d time.Duration, fn func()) *Event {
	return e.ScheduleDaemon(e.now+d, fn)
}

// Cancel marks the event so it will not fire. The cancel is lazy — O(1): the
// event stays in the calendar and is discarded when the pop loop reaches it.
// It is safe to cancel an event twice or after it fired; later cancels are
// no-ops.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled {
		return
	}
	ev.canceled = true
	// A canceled event can never fire, so drop the callback references now: a
	// corpse awaiting its lazy pop must not keep the closure's captures — for
	// long-dated timers, potentially megabytes of request state — reachable.
	ev.fn, ev.pfn, ev.proc, ev.act = nil, nil, nil, nil
	if ev.index >= 0 {
		if !ev.daemon {
			e.foreground--
		}
		if e.tryRemoveLeaf(ev) {
			if ev.reclaim {
				e.recycle(ev)
			}
		} else {
			e.noteDead()
		}
	}
}

// tryRemoveLeaf detaches a canceled event from the calendar immediately when
// it occupies a leaf slot, reporting whether it did. Three quarters of a
// 4-ary heap is leaves, and pulling one out is O(1): the vacated slot takes
// the last entry, which as a fellow leaf can only need to move up. Internal
// slots would need a full sift cascade — exactly what lazy deletion exists
// to avoid — so those stay for the pop loop or the compactor.
func (e *Engine) tryRemoveLeaf(ev *Event) bool {
	h := e.events
	i := ev.index
	n := len(h) - 1
	if i<<2+1 <= n {
		return false // has a child; leave it for lazy deletion
	}
	last := h[n]
	h[n] = heapEntry{}
	e.events = h[:n]
	ev.index = -1
	if i < n {
		h[i] = last
		last.ev.index = i
		e.heapSiftUp(i)
	}
	return true
}

// noteDead records one more canceled event left in the heap, compacting the
// calendar once corpses outnumber live entries. Compaction keeps lazy
// deletion O(1) amortized without letting a cancel storm (every flow of a
// large mesh rescheduled away at once) bloat the heap that every later pop
// must sift through.
func (e *Engine) noteDead() {
	e.dead++
	if e.dead > len(e.events)/2 && len(e.events) >= 64 {
		e.compact()
	}
}

// compact removes canceled events from the calendar in one pass: filter,
// then restore the heap property bottom-up in O(n). Relative order of the
// survivors is untouched — order is decided by (at, seq) alone — so traces
// are unaffected.
func (e *Engine) compact() {
	h := e.events
	n := 0
	for _, entry := range h {
		ev := entry.ev
		if ev.canceled {
			ev.index = -1
			if ev.reclaim {
				e.recycle(ev)
			}
			continue
		}
		h[n] = entry
		ev.index = n
		n++
	}
	for i := n; i < len(h); i++ {
		h[i] = heapEntry{}
	}
	e.events = h[:n]
	for i := (n - 2) >> 2; i >= 0; i-- {
		e.heapSiftDown(i)
	}
	e.dead = 0
}

// CancelRecycle cancels ev and hands its allocation back to the engine: the
// event returns to the free list automatically once the pop loop discards it
// (immediately, if it already fired). The caller must drop its reference —
// with lazy cancellation a canceled event cannot be recycled by hand until
// it leaves the heap, which only the kernel observes. Calling it twice, or
// after Recycle, panics like a double free.
func (e *Engine) CancelRecycle(ev *Event) {
	if ev == nil {
		return
	}
	if ev.pooled {
		panic("sim: CancelRecycle of an already recycled event")
	}
	if ev.reclaim {
		panic("sim: CancelRecycle called twice on the same event")
	}
	if !ev.canceled {
		ev.canceled = true
		ev.fn, ev.pfn, ev.proc, ev.act = nil, nil, nil, nil // as in Cancel: corpses retain nothing
		if ev.index >= 0 {
			if !ev.daemon {
				e.foreground--
			}
			// Leaf removal and compaction both pop ev from the heap right
			// here; the index check below then recycles it immediately.
			if !e.tryRemoveLeaf(ev) {
				e.noteDead()
			}
		}
	}
	if ev.index >= 0 {
		ev.reclaim = true
	} else {
		e.recycle(ev)
	}
}

// Reschedule moves a still-pending event to a new time, exactly as if it had
// been canceled and a fresh event scheduled for at: the event takes a fresh
// sequence number, so its ordering against other events at the same instant
// is bit-identical to the cancel+schedule path — while the Event struct and
// its callback are reused in place with one sift instead of a heap removal,
// a free-list round trip and a push. Rescheduling an event that already
// fired, was canceled, or was recycled panics.
func (e *Engine) Reschedule(ev *Event, at time.Duration) {
	e.RescheduleSeq(ev, at, e.TakeSeq())
}

// RescheduleSeq moves a still-pending event to the key (at, seq), seq taken
// earlier by TakeSeq: the event then fires where a Schedule made at the
// moment seq was taken would have fired. The sift goes up or down by
// comparing the new key with the old one. Moving to a time before now, to a
// seq not yet taken, or moving an event that is not pending panics.
func (e *Engine) RescheduleSeq(ev *Event, at time.Duration, seq uint64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: reschedule at %v before now %v", at, e.now))
	}
	if seq >= e.seq {
		panic(fmt.Sprintf("sim: reschedule with seq %d not yet taken", seq))
	}
	if ev == nil || ev.canceled || ev.pooled || ev.index < 0 {
		panic("sim: Reschedule of an event that is not pending")
	}
	up := at < ev.at || (at == ev.at && seq < ev.seq)
	ev.at, ev.seq = at, seq
	i := ev.index
	e.events[i].at, e.events[i].seq = at, seq
	if up {
		e.heapSiftUp(i)
	} else {
		e.heapSiftDown(i)
	}
}

// Recycle returns an event to the engine's free list so a later scheduling
// call can reuse the allocation. Only the holder of the last reference may
// recycle, and only once the event has left the calendar: after its callback
// ran (recycling from inside the callback is fine). A canceled event stays
// queued until the kernel lazily pops it — use CancelRecycle to hand such an
// event back without waiting. Recycling an event that is still scheduled, or
// twice, panics — a stale recycled pointer would silently corrupt whatever
// event reuses the slot.
func (e *Engine) Recycle(ev *Event) {
	if ev == nil {
		return
	}
	if ev.index >= 0 {
		if ev.canceled {
			panic("sim: Recycle of a canceled event still queued; cancellation is lazy — use CancelRecycle, or wait until the kernel pops it")
		}
		panic("sim: Recycle of an event still scheduled")
	}
	if ev.pooled {
		panic("sim: Recycle called twice on the same event")
	}
	e.recycle(ev)
}

// recycle parks ev in the free list, or drops it once the list is at its
// high-water mark. The caller has already validated ownership.
func (e *Engine) recycle(ev *Event) {
	ev.pooled = true
	ev.reclaim = false
	ev.fn = nil
	ev.pfn = nil
	ev.proc = nil
	ev.act = nil
	if len(e.pool) < e.poolCap() {
		e.pool = append(e.pool, ev)
	}
}

// Step fires the next event, advancing the clock. It returns false when the
// calendar holds no live events. Canceled events reaching the root are
// discarded here — the deferred half of the lazy Cancel.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := e.heapPop()
		if ev.canceled {
			e.dead--
			if ev.reclaim {
				e.recycle(ev)
			}
			continue
		}
		if !ev.daemon {
			e.foreground--
		}
		if e.inv != nil && ev.at < e.now {
			e.inv.Checkf(false, "event time %v before clock %v", ev.at, e.now)
		}
		e.now = ev.at
		e.fired++
		fn, pfn, parg, act := ev.fn, ev.pfn, ev.proc, ev.act
		if ev.reclaim {
			// Kernel-owned event: back to the free list before the callback,
			// so a wake event is immediately reusable for the next sleep the
			// woken process performs.
			e.recycle(ev)
		}
		switch {
		case act != nil:
			act.step()
		case pfn != nil:
			pfn(parg)
		default:
			fn()
		}
		return true
	}
	return false
}

// Run fires events until no foreground (non-daemon) work remains or Stop is
// called. Foreground work is a pending non-daemon event or a live non-daemon
// process: daemon events keep firing while either exists (a daemon may be
// what wakes a parked process), and are left pending once neither does.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run reentered")
	}
	e.running = true
	e.stopped = false
	defer func() {
		e.running = false
		e.releaseIdleWorkers()
	}()
	for !e.stopped {
		if e.foreground == 0 && e.procs == 0 && e.flats == 0 {
			break
		}
		if !e.Step() {
			break
		}
	}
}

// RunUntil fires events with time ≤ deadline, then sets the clock to the
// deadline (if it is later than the last event fired). Events scheduled
// exactly at the deadline do fire.
func (e *Engine) RunUntil(deadline time.Duration) {
	if e.running {
		panic("sim: RunUntil reentered")
	}
	e.running = true
	e.stopped = false
	defer func() {
		e.running = false
		e.releaseIdleWorkers()
	}()
	for !e.stopped {
		if len(e.events) == 0 {
			break
		}
		// Peek: heap root is slot 0. Canceled roots are discarded without
		// firing regardless of the deadline.
		next := e.events[0].ev
		if next.canceled {
			e.heapPop()
			e.dead--
			if next.reclaim {
				e.recycle(next)
			}
			continue
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunWindow fires the events with time strictly before limit: the half-open
// window [·, limit) of a run that pauses on a grid of boundaries, where an
// event at exactly limit belongs to the next window. Unlike RunUntil it
// leaves the clock at the last event fired, and, as in Run, events fire only
// while foreground work remains. It returns the time of the earliest live
// event left and true, or false once the run is over: no foreground work,
// live processes or actors but no live event to move them (a stuck world,
// which Run would also leave), or Stop. Parked workers survive from window to
// window and are retired when RunWindow reports false.
func (e *Engine) RunWindow(limit time.Duration) (next time.Duration, ok bool) {
	if e.running {
		panic("sim: RunWindow reentered")
	}
	e.running = true
	e.stopped = false
	defer func() {
		e.running = false
		if !ok {
			e.releaseIdleWorkers()
		}
	}()
	for !e.stopped && (e.foreground > 0 || e.procs > 0 || e.flats > 0) {
		if len(e.events) == 0 {
			break
		}
		root := e.events[0].ev
		if root.canceled {
			e.heapPop()
			e.dead--
			if root.reclaim {
				e.recycle(root)
			}
			continue
		}
		if root.at >= limit {
			return root.at, true
		}
		e.Step()
	}
	return 0, false
}

// Stop makes Run, RunUntil and RunWindow return after the current event
// completes.
func (e *Engine) Stop() { e.stopped = true }

// Drained reports whether the simulation has fully quiesced: no pending
// foreground events, no live non-daemon processes and no live flat actors. A
// false result after Run() usually means a process or actor leaked — it is
// blocked on a primitive nobody will ever signal.
func (e *Engine) Drained() bool {
	return e.foreground == 0 && e.procs == 0 && e.flats == 0
}
