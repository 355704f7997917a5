package sim

import (
	"sync"
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
// started has drained, so a caller that reads state the work publishes off
// the engine goroutine (a polled operation) right after Do sees it done.
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
// accepted submission ran exactly once on the serve goroutine.
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
