package sim

import (
	"sync"
	"time"
)

// RTMode selects how RealTime advances the simulation clock.
type RTMode int

const (
	// FreeRun drains the engine after each batch of submissions: virtual
	// time jumps as far as the parked work requires and stands still
	// otherwise. A submission's downstream effects (a parked request's
	// completion) are visible by the time the next submission runs, which
	// makes free-run serving deterministic given the arrival order.
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
// RealTime makes its Serve goroutine the engine's only driver: callers
// submit closures with Do, Serve runs them between engine runs, and
// everything the closure starts (actors, procs, events) executes on the
// Serve goroutine too.
//
// The kernel itself never blocks on wall time; RealTime is strictly a
// boundary adapter, and a simulation driven entirely by Do submissions in a
// recorded order replays bit-identically through Engine.Run alone.
type RealTime struct {
	eng  *Engine
	mode RTMode
	tick time.Duration

	mu     sync.Mutex
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

// Do runs fn on the Serve goroutine and returns once fn has executed (in
// free-run mode, also once the engine has drained the work fn started). It
// reports false if the RealTime is closed and fn was not run. Do must not
// be called from inside a submission: fn blocks the only goroutine that
// could serve it.
func (rt *RealTime) Do(fn func()) bool {
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

// Serve drives the engine until Close. It is the engine's sole driver while
// running and must be called exactly once, typically on its own goroutine.
func (rt *RealTime) Serve() {
	defer close(rt.done)
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
			if rt.mode == Paced {
				close(batch[i].done)
			}
		}
		switch rt.mode {
		case FreeRun:
			// Drain on demand: only a submission can create foreground work.
			// The batch's callers are released only after the drain, so
			// anything they observe next (an operation they poll) already
			// reflects the work their submissions started.
			if len(batch) > 0 {
				rt.eng.Run()
			}
			for i := range batch {
				close(batch[i].done)
			}
		case Paced:
			rt.eng.RunUntil(virtEpoch + time.Since(wallEpoch))
		}
		if closed {
			if len(batch) == 0 {
				return
			}
			continue // sweep any submissions racing the close
		}
		if rt.mode == FreeRun {
			<-rt.wake
		} else {
			select {
			case <-rt.wake:
			case <-time.After(rt.tick):
			}
		}
	}
}

// Close stops Serve after it sweeps any pending submissions, and waits for
// it to return. Later Do calls report false. Close is idempotent.
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
