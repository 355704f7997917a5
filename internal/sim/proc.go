package sim

import (
	"fmt"
	"runtime/debug"
	"time"
)

// Proc is a simulated process: user code running on a worker goroutine that
// blocks on kernel primitives. Exactly one of {kernel, some process} executes
// at any instant; the handoff is synchronous through unbuffered channels,
// which keeps the simulation deterministic regardless of the Go scheduler.
type Proc struct {
	eng  *Engine
	name string

	// w is the worker executing this process's body: a goroutine plus its
	// resume/yield channel pair, leased from the engine's parked-worker pool
	// when the start event fires and returned when the body finishes. nil
	// before start and after the worker is handed back.
	w *worker

	finished bool // the body has returned (or panicked)
	daemon   bool

	// body holds the user function between Spawn and the start event.
	body func(p *Proc)

	// wake is the scheduled event that will resume this process, when it is
	// suspended with a known resume time (Sleep) or has been selected for
	// wakeup by a primitive; it guards against a double resume.
	wake *Event

	// act is the actor Drive runs flat state machines on, created on the
	// first Drive and reused by every later one (nested Drives share it).
	act *Actor
}

// worker is a reusable process executor: one goroutine plus the unbuffered
// channel pair used for the deterministic kernel↔process handoff. A closed-
// loop benchmark cell spawns one process per request — hundreds of thousands
// of processes whose peak concurrency is only a few hundred — so leasing
// workers from a parked pool replaces millions of goroutine + channel-pair
// creations with a handful.
type worker struct {
	task   chan workItem // kernel -> worker: run a process body
	resume chan struct{}
	yield  chan struct{}
}

type workItem struct {
	p  *Proc
	fn func(p *Proc)
}

func (w *worker) loop() {
	for item := range w.task {
		w.exec(&item)
	}
}

// exec runs one process body. It empties the workItem slot it is handed
// before dispatching: a worker can park idle across whole GC cycles, and a
// lingering workItem on its stack would keep the last process — and
// everything the body closure captured — reachable.
func (w *worker) exec(item *workItem) {
	p, fn := item.p, item.fn
	*item = workItem{}
	defer func() {
		if r := recover(); r != nil {
			// Transport the panic to the kernel goroutine so it surfaces
			// from Run() on the caller's stack.
			p.eng.pendingPanic = &procPanic{value: r, stack: debug.Stack(), proc: p.name}
		}
		p.finished = true
		if !p.daemon {
			p.eng.procs--
		}
		w.yield <- struct{}{}
	}()
	fn(p)
}

// maxIdleWorkers caps the parked-worker pool; beyond it, finishing workers
// retire. Idle workers cost a goroutine each, so the cap bounds the standing
// footprint at roughly the peak concurrency any experiment actually reaches.
const maxIdleWorkers = 1024

// getWorker leases a parked worker, or starts a fresh one. Kernel context.
func (e *Engine) getWorker() *worker {
	if n := len(e.idle); n > 0 {
		w := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		e.workersReused++
		return w
	}
	w := &worker{
		task:   make(chan workItem),
		resume: make(chan struct{}),
		yield:  make(chan struct{}),
	}
	e.workersCreated++
	e.workersLive++
	if e.workersLive > e.workersPeak {
		e.workersPeak = e.workersLive
	}
	go w.loop()
	return w
}

// parkWorker returns a worker whose process finished to the idle pool, or
// retires it (closing its task channel ends the goroutine). A panic unwind
// retires the worker rather than reuse it: it leaves by a recover, and a
// retired worker is provably clean at the cost of one goroutine spawn on a
// path that ends the run anyway. Kernel context.
func (e *Engine) parkWorker(w *worker) {
	if e.pendingPanic != nil || len(e.idle) >= maxIdleWorkers {
		close(w.task)
		e.workersLive--
		return
	}
	e.idle = append(e.idle, w)
}

// releaseIdleWorkers retires every parked worker. Run, RunUntil and the
// RunWindow call that ends a windowed run call it on the way out so an
// engine abandoned after a run leaks no goroutines; the next run simply
// rebuilds the pool on first spawn.
func (e *Engine) releaseIdleWorkers() {
	for i, w := range e.idle {
		close(w.task)
		e.idle[i] = nil
		e.workersLive--
	}
	e.idle = e.idle[:0]
}

// Spawn starts fn as a new process at the current virtual time. The body
// begins executing when the kernel reaches the start event, before any event
// scheduled afterwards at the same timestamp.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnDaemon starts fn as a daemon process: it runs like any process while
// the simulation is alive, but neither its wakeups nor its liveness keep
// Run going. Use it for environment processes (failure injectors, background
// churn) that would otherwise run the clock forever.
func (e *Engine) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return e.spawnAt(e.now, name, fn, true)
}

// SpawnAt starts fn as a new process at absolute virtual time at.
func (e *Engine) SpawnAt(at time.Duration, name string, fn func(p *Proc)) *Proc {
	return e.spawnAt(at, name, fn, false)
}

func (e *Engine) spawnAt(at time.Duration, name string, fn func(p *Proc), daemon bool) *Proc {
	p := &Proc{
		eng:    e,
		name:   name,
		daemon: daemon,
		body:   fn,
	}
	if !daemon {
		e.procs++
	}
	e.procsSpawned++
	e.scheduleProc(at, (*Proc).start, p, daemon)
	return p
}

// start is the start event's body (kernel context): lease a worker, hand it
// the process body, and wait for the first park or finish — the synchronous
// handoff that makes the simulation deterministic.
func (p *Proc) start() {
	fn := p.body
	p.body = nil
	w := p.eng.getWorker()
	p.w = w
	w.task <- workItem{p: p, fn: fn}
	<-w.yield
	p.afterTurn()
}

// wakeup is the wake event's body (kernel context): resume the suspended
// process and wait for it to park again or finish.
func (p *Proc) wakeup() {
	p.wake = nil
	w := p.w
	w.resume <- struct{}{}
	<-w.yield
	p.afterTurn()
}

// afterTurn runs in kernel context once the process has parked or
// finished: a finished process hands its worker back, and a panic in its
// body surfaces from Run.
func (p *Proc) afterTurn() {
	if p.finished {
		p.eng.parkWorker(p.w)
		p.w = nil
	}
	p.eng.checkPanic()
}

// suspend parks the process until some kernel-context actor schedules its
// resume. It must only be called from the process's own goroutine.
func (p *Proc) suspend() {
	w := p.w
	w.yield <- struct{}{}
	<-w.resume
}

// Drive runs a flat state machine as a blocking call on the process's own
// goroutine. start issues the machine's first step on the process's actor;
// Drive then parks the process on each continuation the machine arms and
// runs it on resume, until a step arms nothing — the machine has delivered
// its result to its completion callback — and returns.
//
// Each wake the machine arms (Actor.Sleep, Signal.WaitFlat, a completing
// flow) schedules the process's own resume, so a stage costs exactly the
// one event and sequence number a Proc.Sleep or Signal.Wait would: a
// blocking call expressed through Drive is trace-identical to the same
// machine driven by the kernel, and to a hand-written blocking body with
// the same stages.
//
// A continuation may itself make blocking calls, including nested Drives on
// the same actor.
func (p *Proc) Drive(start func(a *Actor)) {
	a := p.act
	if a == nil {
		a = &Actor{eng: p.eng, name: p.name, daemon: p.daemon, proc: p}
		p.act = a
	}
	if a.armed {
		panic("sim: Drive by process " + p.name + " with a continuation already armed")
	}
	start(a)
	for a.armed {
		p.suspend()
		a.runNext()
	}
}

// scheduleResumeAt arranges the kernel to hand control back to the suspended
// process at absolute time at. Must be called from kernel context, and only
// when no resume is already pending. The wake event is engine-owned: the
// kernel recycles it automatically when it fires.
func (p *Proc) scheduleResumeAt(at time.Duration) {
	if p.wake != nil {
		panic("sim: double resume scheduled for process " + p.name)
	}
	p.wake = p.eng.scheduleProc(at, (*Proc).wakeup, p, p.daemon)
}

// wakeNow schedules an immediate (current-instant) resume. FIFO order among
// same-instant wakeups is preserved by event sequence numbers.
func (p *Proc) wakeNow() { p.scheduleResumeAt(p.eng.now) }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Sleep suspends the process for d of virtual time. Negative d panics.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	p.scheduleResumeAt(p.eng.now + d)
	p.suspend()
}

// SleepUntil suspends the process until absolute virtual time t, which must
// not be in the past.
func (p *Proc) SleepUntil(t time.Duration) {
	if t < p.eng.now {
		panic(fmt.Sprintf("sim: SleepUntil %v before now %v", t, p.eng.now))
	}
	p.scheduleResumeAt(t)
	p.suspend()
}

// Yield lets every other event/process scheduled at the current instant run
// before this process continues.
func (p *Proc) Yield() { p.Sleep(0) }
