package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRealTimeFreeRunDrains checks the free-run contract: each submission's
// downstream virtual work is fully drained before the next submission runs,
// with virtual time standing still between submissions.
func TestRealTimeFreeRunDrains(t *testing.T) {
	eng := NewEngine()
	rt := NewRealTime(eng, FreeRun)
	go rt.Serve()

	var afterFirst, afterSecond time.Duration
	if !rt.Do(func() {
		eng.Spawn("sleeper", func(p *Proc) { p.Sleep(5 * time.Second) })
	}) {
		t.Fatal("Do refused on open RealTime")
	}
	rt.Do(func() { afterFirst = eng.Now() })
	rt.Do(func() {
		eng.Spawn("sleeper2", func(p *Proc) { p.Sleep(2 * time.Second) })
	})
	rt.Do(func() { afterSecond = eng.Now() })
	rt.Close()

	if afterFirst != 5*time.Second {
		t.Fatalf("clock after first drain = %v, want 5s", afterFirst)
	}
	if afterSecond != 7*time.Second {
		t.Fatalf("clock after second drain = %v, want 7s", afterSecond)
	}
	if !eng.Drained() {
		t.Fatal("engine not drained after Close")
	}
}

// TestRealTimeFreeRunDoReturnsAfterDrain pins the other half of the
// free-run contract: Do itself returns only once the work its submission
// started has drained, so a caller that reads state the work publishes
// outside the engine (a polled operation) right after Do sees it done.
func TestRealTimeFreeRunDoReturnsAfterDrain(t *testing.T) {
	eng := NewEngine()
	rt := NewRealTime(eng, FreeRun)
	go rt.Serve()
	defer rt.Close()

	for i := 0; i < 20; i++ {
		var mu sync.Mutex
		finished := false
		rt.Do(func() {
			eng.Spawn("op", func(p *Proc) {
				// Enough engine work that a Do released before the drain
				// would be observed mid-flight.
				for j := 0; j < 2000; j++ {
					p.Sleep(time.Millisecond)
				}
				mu.Lock()
				finished = true
				mu.Unlock()
			})
		})
		mu.Lock()
		done := finished
		mu.Unlock()
		if !done {
			t.Fatalf("submission %d: Do returned before its work drained", i)
		}
	}
}

// TestRealTimeFreeRunActorCompletion parks an actor continuation and checks
// its result is visible when Do returns — the shape a wire request takes.
func TestRealTimeFreeRunActorCompletion(t *testing.T) {
	eng := NewEngine()
	rt := NewRealTime(eng, FreeRun)
	go rt.Serve()
	defer rt.Close()

	res := make(chan time.Duration, 1)
	rt.Do(func() {
		var a Actor
		a.Bind(eng, "req")
		a.Go(func() {
			a.Sleep(300*time.Millisecond, func() {
				res <- eng.Now()
				a.Finish()
			})
		})
	})
	select {
	case at := <-res:
		if at != 300*time.Millisecond {
			t.Fatalf("completion at %v, want 300ms", at)
		}
	default:
		t.Fatal("free-run Do returned before the parked request completed")
	}
}

// TestRealTimePacedTracksWallClock checks paced mode advances virtual time
// with the wall clock and completes parked work without new submissions.
func TestRealTimePacedTracksWallClock(t *testing.T) {
	eng := NewEngine()
	rt := NewRealTime(eng, Paced)
	rt.SetTick(time.Millisecond)
	go rt.Serve()
	defer rt.Close()

	res := make(chan struct{})
	rt.Do(func() {
		eng.Spawn("sleeper", func(p *Proc) {
			p.Sleep(20 * time.Millisecond)
			close(res)
		})
	})
	select {
	case <-res:
	case <-time.After(5 * time.Second):
		t.Fatal("paced engine did not reach the 20ms virtual sleep in 5s of wall time")
	}
	var now time.Duration
	rt.Do(func() { now = eng.Now() })
	if now < 20*time.Millisecond {
		t.Fatalf("virtual clock = %v, want ≥ 20ms", now)
	}
}

// TestRealTimeCloseRejectsLateDo pins the close semantics.
func TestRealTimeCloseRejectsLateDo(t *testing.T) {
	eng := NewEngine()
	rt := NewRealTime(eng, FreeRun)
	go rt.Serve()
	rt.Close()
	rt.Close() // idempotent
	if rt.Do(func() {}) {
		t.Fatal("Do succeeded on closed RealTime")
	}
}

// TestRealTimeConcurrentDo hammers Do from many goroutines and checks every
// accepted submission ran exactly once.
func TestRealTimeConcurrentDo(t *testing.T) {
	eng := NewEngine()
	rt := NewRealTime(eng, FreeRun)
	go rt.Serve()

	const n = 64
	ran := make(chan int, n)
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		i := i
		go func() {
			rt.Do(func() {
				eng.Spawn("w", func(p *Proc) {
					p.Sleep(time.Millisecond)
					ran <- i
				})
			})
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	rt.Close()
	if len(ran) != n {
		t.Fatalf("%d of %d submissions completed", len(ran), n)
	}
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		v := <-ran
		if seen[v] {
			t.Fatalf("submission %d ran twice", v)
		}
		seen[v] = true
	}
}

// TestRealTimeCloseRacesDo closes a free-run RealTime while 8 goroutines
// submit to it. Every Do either ran its closure and drained the work it
// started, or reported false without running it; every closure finds the
// engine empty; Serve returns; and no goroutine outlives the RealTime.
func TestRealTimeCloseRacesDo(t *testing.T) {
	base := runtime.NumGoroutine()
	eng := NewEngine()
	rt := NewRealTime(eng, FreeRun)
	served := make(chan struct{})
	go func() {
		rt.Serve()
		close(served)
	}()

	const workers, perWorker = 8, 50
	var ran atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			refused := false
			for i := 0; i < perWorker; i++ {
				var didRun, drained, empty bool
				ok := rt.Do(func() {
					didRun = true
					empty = eng.Pending() == 0 && eng.LiveProcs() == 0
					ran.Add(1)
					eng.Spawn("w", func(p *Proc) {
						p.Sleep(time.Millisecond)
						drained = true
					})
				})
				switch {
				case ok && !(didRun && drained):
					t.Errorf("Do reported true: ran %v, drained %v", didRun, drained)
				case ok && refused:
					t.Error("Do accepted after an earlier Do was refused")
				case ok && !empty:
					t.Error("a submission found work left by an earlier one")
				case !ok && didRun:
					t.Error("Do reported false after running its closure")
				}
				refused = refused || !ok
			}
		}()
	}
	close(start)
	for ran.Load() < workers {
		runtime.Gosched()
	}
	rt.Close()
	wg.Wait()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if eng.Pending() != 0 || eng.LiveProcs() != 0 {
		t.Fatalf("engine left with %d pending events, %d live procs", eng.Pending(), eng.LiveProcs())
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the RealTime", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestRealTimeFreeRunDoLeavesNothingPending pins the drain half of the
// free-run contract on the engine itself: once Do returns, no event is
// left for work that involves no daemon.
func TestRealTimeFreeRunDoLeavesNothingPending(t *testing.T) {
	eng := NewEngine()
	rt := NewRealTime(eng, FreeRun)
	go rt.Serve()
	defer rt.Close()

	for _, work := range []func(){
		func() { eng.After(time.Second, func() {}) },
		func() { eng.Spawn("p", func(p *Proc) { p.Sleep(time.Minute) }) },
		func() {
			var a Actor
			a.Bind(eng, "a")
			a.Go(func() { a.Sleep(time.Hour, a.Finish) })
		},
	} {
		pending := -1
		rt.Do(work)
		rt.Do(func() { pending = eng.Pending() })
		if pending != 0 {
			t.Fatalf("%d events pending after a free-run Do", pending)
		}
	}
}
