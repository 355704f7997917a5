package sim

import "time"

// Actor is the flat counterpart of a process: a client-scale activity
// compiled into a continuation-passing state machine that the kernel drives
// directly, with no goroutine, no handoff channels and no Proc descriptor.
// Where a Proc blocks (Sleep, Signal.Wait), an Actor instead *arms* a
// continuation — a cached step function run by the next wake event — and
// returns to the kernel. The entire per-actor cost is this struct: a wake
// event carries the actor itself and the kernel calls its step directly, so
// an actor allocates no closure of its own. A million parked actors cost
// megabytes, not the gigabytes of stacks a million parked goroutines would.
//
// Equivalence with the process API is exact by construction: every point
// where a process schedules a kernel event (the spawn start event, a sleep's
// wake, a signal fire's wake) the actor schedules exactly one event through
// the same engine-owned reclaim path, consuming the same sequence number the
// process path would. A driver ported from Spawn to Go/Sleep/WaitFlat
// therefore produces a bit-identical trace. See DESIGN.md §11 for when to
// use which API.
//
// Discipline: every step must either arm a continuation (Sleep, a WaitFlat
// registration, or a nested flat call that does so) or call Finish before
// returning; a step that does neither has silently leaked the actor, and
// the kernel panics when the step returns.
//
// A process can drive the same continuations itself (Proc.Drive): its
// actor's wakes then resume the process instead of stepping the actor, so
// a flat state machine doubles as the body of a blocking call. Only an
// actor driven by the kernel can be withdrawn before it finishes: its
// owner does so with Cancel.
type Actor struct {
	eng      *Engine
	name     string
	daemon   bool
	live     bool // started (Go) and not yet finished
	armed    bool // a continuation is registered for the next wake
	canceled bool // Cancel ran; the unwind event is pending
	next     func()
	wake     *Event // pending wake event, nil while externally parked

	// waiter is the actor's embedded signal waiter, reused across WaitFlat
	// registrations so parking on a signal allocates nothing. One signal
	// wait may be outstanding at a time.
	waiter sigWaiter

	// proc, when set, is the process driving this actor (Proc.Drive):
	// every wake resumes it instead of stepping the actor.
	proc *Proc
}

// Bind attaches the actor to an engine; it allocates nothing. It must be
// called once, before Go. name labels kernel panics.
func (a *Actor) Bind(e *Engine, name string) {
	if a.eng != nil {
		panic("sim: Actor bound twice")
	}
	a.eng = e
	a.name = name
}

// BindDaemon is Bind for a daemon actor: like a daemon process, it runs
// while the simulation is alive, but neither its wakes nor its liveness
// keep Run going. Environment activities (fault injectors, dispatchers
// that wait forever for work) use it.
func (a *Actor) BindDaemon(e *Engine, name string) {
	a.Bind(e, name)
	a.daemon = true
}

// Engine returns the engine the actor is bound to.
func (a *Actor) Engine() *Engine { return a.eng }

// Now returns the engine's current virtual time.
func (a *Actor) Now() time.Duration { return a.eng.now }

// Name returns the label given to Bind.
func (a *Actor) Name() string { return a.name }

// Live reports whether the actor has started and not yet finished.
func (a *Actor) Live() bool { return a.live }

// Go starts the actor: first runs at the current virtual time, scheduled
// exactly as a process spawn's start event would be. The actor counts as
// foreground work until Finish.
func (a *Actor) Go(first func()) { a.GoAt(a.eng.now, first) }

// GoAt starts the actor at absolute virtual time at.
func (a *Actor) GoAt(at time.Duration, first func()) {
	if a.eng == nil {
		panic("sim: Actor not bound")
	}
	if a.live {
		panic("sim: Actor " + a.name + " started twice")
	}
	a.live = true
	a.canceled = false
	if !a.daemon {
		a.eng.flats++
	}
	a.armEvent(at, first)
}

// Sleep arms then to run d from now — the actor-side mirror of Proc.Sleep,
// scheduling one wake event through the same engine-owned path.
func (a *Actor) Sleep(d time.Duration, then func()) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	a.armEvent(a.eng.now+d, then)
}

// Finish ends the actor. It may start again with Go (the engine binding is
// retained).
func (a *Actor) Finish() {
	if !a.live {
		panic("sim: Finish of an actor that is not live")
	}
	a.live = false
	if !a.daemon {
		a.eng.flats--
	}
}

// Cancel withdraws a live actor at its owner's request. The pending wake (a
// sleep, the start event, or a wake a Fire or Put already scheduled) is
// cancelled and the armed continuation is discarded; then one event is
// scheduled at the current instant that runs unwind (may be nil) and
// finishes the actor.
//
// unwind releases what the actor holds at its current stage: the abort of
// an in-flight storage op (reqpath.CtxFlat.Abort), a queue item a Put had
// already handed over (Getter.Reput), a token it must give back. The owner
// withdraws a parked registration first: a queue's with Getter.Cancel, so
// no Put hands an item to the withdrawn actor, and a signal's with
// Signal.CancelFlat, so the signal drops the actor's waiter; Cancel panics
// on an actor still parked on a signal. Either way the actor may later
// start again. Cancelling an actor that is finished or already cancelled
// is a no-op. Cancel is called from outside the actor's own steps; an
// actor a process drives (Proc.Drive) cannot be cancelled.
func (a *Actor) Cancel(unwind func()) {
	if !a.live || a.canceled {
		return
	}
	if a.proc != nil {
		panic("sim: Cancel of actor " + a.name + ", which a process drives")
	}
	if a.waiter.a != nil && !a.waiter.released {
		panic("sim: Cancel of actor " + a.name + ", which is parked on a signal; withdraw it with Signal.CancelFlat first")
	}
	a.canceled = true
	if a.wake != nil {
		// Engine-owned: the lazy pop recycles it.
		a.eng.Cancel(a.wake)
		a.wake = nil
	}
	a.armed, a.next = false, nil
	a.armEvent(a.eng.now, func() {
		if unwind != nil {
			unwind()
		}
		a.Finish()
	})
}

// armEvent registers then and schedules the wake that runs it.
func (a *Actor) armEvent(at time.Duration, then func()) {
	a.arm(then)
	if a.proc != nil {
		a.proc.scheduleResumeAt(at)
		return
	}
	a.wake = a.eng.scheduleActor(at, a)
}

// arm registers then as the continuation without scheduling anything; the
// wake comes from outside (a signal fire, a completing flow). Kernel
// primitives call this; drivers use Sleep / WaitFlat.
func (a *Actor) arm(then func()) {
	if a.armed {
		panic("sim: actor " + a.name + " armed twice")
	}
	if then == nil {
		panic("sim: actor " + a.name + " armed with nil continuation")
	}
	a.armed = true
	a.next = then
}

// wakeNow schedules the externally armed continuation to run at the current
// instant — the actor-side mirror of Proc.wakeNow, used by Signal.Fire.
func (a *Actor) wakeNow() {
	if a.proc != nil {
		a.proc.wakeNow()
		return
	}
	if a.wake != nil {
		panic("sim: double wake of actor " + a.name)
	}
	if !a.armed {
		panic("sim: wake of actor " + a.name + " with no continuation armed")
	}
	a.wake = a.eng.scheduleActor(a.eng.now, a)
}

// step is what every wake event runs: consume the armed continuation,
// execute it, and enforce the arm-or-finish discipline.
func (a *Actor) step() {
	a.wake = nil
	a.runNext()
	if a.live && !a.armed {
		panic("sim: actor " + a.name + " step returned without arming a continuation or calling Finish")
	}
}

// runNext consumes the armed continuation and executes it.
func (a *Actor) runNext() {
	a.armed = false
	fn := a.next
	a.next = nil
	fn()
}
