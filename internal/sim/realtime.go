package sim

import (
	"sync"
	"time"
)

// RTMode selects how RealTime advances the simulation clock.
type RTMode int

const (
	// FreeRun drains the engine after each submission: virtual time jumps
	// as far as the parked work requires and stands still otherwise. A
	// submission's downstream effects (a parked request's completion) are
	// visible by the time the next submission runs, which makes free-run
	// serving deterministic given the arrival order.
	FreeRun RTMode = iota
	// Paced advances virtual time in step with the wall clock: every tick
	// the engine runs up to the virtual instant corresponding to the wall
	// time elapsed since Serve began. Latencies become observable in real
	// time; determinism then depends on wall-clock arrival times.
	Paced
)

func (m RTMode) String() string {
	if m == Paced {
		return "paced"
	}
	return "freerun"
}

type rtSubmission struct {
	fn   func()
	done chan struct{}
}

// RealTime bridges wall-clock callers — an HTTP server, a CLI — onto a
// deterministic Engine. The engine is not safe for concurrent use, so
// RealTime serialises every submission:
//
//   - In FreeRun mode the engine is owned by a mutex. Do runs the closure
//     and the drain on the caller's goroutine while holding it, so
//     everything the closure starts (actors, procs, events) executes there
//     too, and the order in which callers take the lock is the arrival
//     order. Serve only waits for Close.
//   - In Paced mode Serve's goroutine is the engine's only driver: Do
//     queues the closure and Serve runs it between clock ticks.
//
// The kernel itself never blocks on wall time; RealTime is strictly a
// boundary adapter, and a simulation driven entirely by Do submissions in a
// recorded order replays bit-identically through Engine.Run alone.
type RealTime struct {
	eng  *Engine
	mode RTMode
	tick time.Duration

	mu     sync.Mutex // FreeRun: held by Do for the closure and the drain
	inbox  []rtSubmission
	closed bool

	wake chan struct{} // 1-buffered doorbell
	done chan struct{} // closed when Serve returns
}

// NewRealTime wraps eng. Serve must be started by the caller.
func NewRealTime(eng *Engine, mode RTMode) *RealTime {
	return &RealTime{
		eng:  eng,
		mode: mode,
		tick: 10 * time.Millisecond,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
}

// Engine returns the wrapped engine. Touch it only from inside Do closures.
func (rt *RealTime) Engine() *Engine { return rt.eng }

// Mode returns the clock-advance mode.
func (rt *RealTime) Mode() RTMode { return rt.mode }

// SetTick adjusts the paced-mode polling interval (default 10ms). Call
// before Serve.
func (rt *RealTime) SetTick(d time.Duration) {
	if d > 0 {
		rt.tick = d
	}
}

// Do runs fn with exclusive use of the engine and reports whether it did;
// it returns false, without running fn, once the RealTime is closed.
//
// In FreeRun mode fn and the drain of the work it starts run on the
// calling goroutine under the engine mutex, so when Do returns the engine
// has no foreground work left. A panic in fn or in that work propagates to
// the caller. In Paced mode fn runs on the Serve goroutine and Do returns
// once it has; the work it starts completes as virtual time catches up.
//
// Do must not be called from inside a submission: in FreeRun mode the
// mutex is already held, and in Paced mode fn blocks the only goroutine
// that could serve it.
func (rt *RealTime) Do(fn func()) bool {
	if rt.mode == FreeRun {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		if rt.closed {
			return false
		}
		fn()
		rt.eng.Run()
		return true
	}
	sub := rtSubmission{fn: fn, done: make(chan struct{})}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return false
	}
	rt.inbox = append(rt.inbox, sub)
	rt.mu.Unlock()
	rt.ring()
	select {
	case <-sub.done:
		return true
	case <-rt.done:
		// Serve exited; a submission enqueued before close is still run on
		// the final sweep, so reaching here means it never was.
		return false
	}
}

func (rt *RealTime) ring() {
	select {
	case rt.wake <- struct{}{}:
	default:
	}
}

// Serve must be called exactly once, typically on its own goroutine, and
// returns after Close. In Paced mode it is the engine's sole driver: it
// runs queued submissions and advances virtual time with the wall clock
// every tick. In FreeRun mode Do drives the engine, and Serve only waits.
func (rt *RealTime) Serve() {
	defer close(rt.done)
	if rt.mode == FreeRun {
		<-rt.wake // rung only by Close
		return
	}
	wallEpoch := time.Now()
	virtEpoch := rt.eng.Now()
	for {
		rt.mu.Lock()
		batch := rt.inbox
		rt.inbox = nil
		closed := rt.closed
		rt.mu.Unlock()

		for i := range batch {
			batch[i].fn()
			close(batch[i].done)
		}
		rt.eng.RunUntil(virtEpoch + time.Since(wallEpoch))
		if closed {
			if len(batch) == 0 {
				return
			}
			continue // sweep any submissions racing the close
		}
		select {
		case <-rt.wake:
		case <-time.After(rt.tick):
		}
	}
}

// Close stops Serve and waits for it to return; later Do calls report
// false. In FreeRun mode Close takes the engine mutex, so a Do already
// running finishes first; in Paced mode Serve first sweeps the submissions
// already queued. Close is idempotent.
func (rt *RealTime) Close() {
	rt.mu.Lock()
	already := rt.closed
	rt.closed = true
	rt.mu.Unlock()
	if !already {
		rt.ring()
	}
	<-rt.done
}
