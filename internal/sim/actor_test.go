package sim

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestActorSleepLoop drives one actor through a sleep chain and checks the
// foreground accounting that keeps Run alive until Finish.
func TestActorSleepLoop(t *testing.T) {
	e := NewEngine()
	var a Actor
	a.Bind(e, "looper")
	var times []time.Duration
	rounds := 0
	var step func()
	step = func() {
		times = append(times, e.Now())
		rounds++
		if rounds == 3 {
			a.Finish()
			return
		}
		a.Sleep(time.Second, step)
	}
	a.GoAt(time.Second, step)
	if e.LiveActors() != 1 {
		t.Fatalf("LiveActors = %d before run, want 1", e.LiveActors())
	}
	e.Run()
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	if len(times) != 3 || times[0] != want[0] || times[1] != want[1] || times[2] != want[2] {
		t.Fatalf("step times = %v, want %v", times, want)
	}
	if !e.Drained() || e.LiveActors() != 0 {
		t.Fatalf("drained=%v liveActors=%d after run", e.Drained(), e.LiveActors())
	}
}

// TestActorTraceMatchesProc runs the same sleep/signal program once on the
// process API and once flat, and checks the kernel observables that define a
// trace — event count, sequence numbers consumed, completion time — match
// exactly.
func TestActorTraceMatchesProc(t *testing.T) {
	run := func(flat bool) (fired uint64, seq uint64, end time.Duration) {
		e := NewEngine()
		var sig Signal
		e.Schedule(5*time.Millisecond, func() { sig.Fire() })
		if flat {
			var a Actor
			a.Bind(e, "client")
			var afterSleep, afterSig func()
			afterSleep = func() { sig.WaitFlat(&a, afterSig) }
			afterSig = func() {
				a.Sleep(time.Millisecond, func() { a.Finish() })
			}
			a.Go(func() { a.Sleep(2*time.Millisecond, afterSleep) })
		} else {
			e.Spawn("client", func(p *Proc) {
				p.Sleep(2 * time.Millisecond)
				sig.Wait(p)
				p.Sleep(time.Millisecond)
			})
		}
		e.Run()
		if !e.Drained() {
			t.Fatalf("flat=%v: engine not drained", flat)
		}
		return e.EventsFired(), e.seq, e.Now()
	}
	gf, gs, ge := run(false)
	ff, fs, fe := run(true)
	if gf != ff || gs != fs || ge != fe {
		t.Fatalf("proc run (fired=%d seq=%d end=%v) != flat run (fired=%d seq=%d end=%v)",
			gf, gs, ge, ff, fs, fe)
	}
}

// TestActorSignalMixedOrder parks a proc and an actor on one signal and
// checks Fire releases them in arrival order.
func TestActorSignalMixedOrder(t *testing.T) {
	e := NewEngine()
	var sig Signal
	var order []string
	e.Spawn("proc-waiter", func(p *Proc) {
		sig.Wait(p)
		order = append(order, "proc")
	})
	var a Actor
	a.Bind(e, "actor-waiter")
	a.Go(func() {
		sig.WaitFlat(&a, func() {
			order = append(order, "actor")
			a.Finish()
		})
	})
	e.Schedule(time.Second, func() { sig.Fire() })
	e.Run()
	if len(order) != 2 || order[0] != "proc" || order[1] != "actor" {
		t.Fatalf("wake order = %v, want [proc actor]", order)
	}
	if !e.Drained() {
		t.Fatal("engine not drained")
	}
}

// TestActorLeak checks that an actor parked on a signal nobody fires is
// reported by Drained/LiveActors, like a leaked process.
func TestActorLeak(t *testing.T) {
	e := NewEngine()
	var sig Signal
	var a Actor
	a.Bind(e, "stuck")
	a.Go(func() { sig.WaitFlat(&a, func() { a.Finish() }) })
	e.Run()
	if e.Drained() || e.LiveActors() != 1 {
		t.Fatalf("drained=%v liveActors=%d, want leak reported", e.Drained(), e.LiveActors())
	}
}

// TestActorStepDiscipline checks the trampoline panics when a step neither
// arms a continuation nor finishes — a silently leaked actor otherwise.
func TestActorStepDiscipline(t *testing.T) {
	e := NewEngine()
	var a Actor
	a.Bind(e, "sloppy")
	a.Go(func() {}) // neither arms nor finishes
	defer func() {
		if recover() == nil {
			t.Fatal("step without arm/Finish did not panic")
		}
	}()
	e.Run()
}

// TestActorDoubleArm checks that arming twice within one step panics.
func TestActorDoubleArm(t *testing.T) {
	e := NewEngine()
	var a Actor
	a.Bind(e, "eager")
	step := func() { a.Finish() }
	a.Go(func() {
		a.Sleep(time.Second, step)
		a.Sleep(time.Second, step)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("double arm did not panic")
		}
	}()
	e.Run()
}

// TestActorSteadyStateZeroAlloc checks the flat event path allocates nothing
// at steady state: after one warm-up round, a population of sleeping actors
// larger than the old fixed pool cap keeps rescheduling through the free
// list with zero fresh allocations.
func TestActorSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	n := minEventPool + 1024
	type client struct {
		a      Actor
		rounds int
		step   func()
	}
	clients := make([]client, n)
	for i := range clients {
		c := &clients[i]
		c.a.Bind(e, "c")
		c.step = func() {
			c.rounds++
			if c.rounds >= 16 {
				c.a.Finish()
				return
			}
			c.a.Sleep(time.Millisecond, c.step)
		}
		c.a.Go(c.step)
	}
	// Warm-up: three rounds populate the free list and size the calendar.
	e.RunUntil(2 * time.Millisecond)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.RunUntil(12 * time.Millisecond)
	runtime.ReadMemStats(&after)

	steps := 10 * uint64(n)
	allocs := after.Mallocs - before.Mallocs
	// Tolerate incidental runtime allocations, but n sleeps per round means
	// even a fraction of an alloc per op would blow through this bound.
	if allocs > 64 {
		t.Fatalf("steady-state flat path allocated %d times over %d events (want ~0)", allocs, steps)
	}

	e.Run()
	if !e.Drained() {
		t.Fatal("engine not drained after all actors finished")
	}
}

// TestActorWakesAllocateNothing checks that an actor costs nothing beyond
// its struct: Bind caches no closure, and a Sleep→wake cycle reuses the
// engine-owned wake event, which carries the actor instead of a callback.
func TestActorWakesAllocateNothing(t *testing.T) {
	e := NewEngine()
	actors := make([]Actor, 200)
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		actors[i].Bind(e, "bound")
		i++
	}); n != 0 {
		t.Fatalf("Bind allocates %v times", n)
	}

	var a Actor
	a.Bind(e, "sleeper")
	var again func()
	again = func() { a.Sleep(time.Millisecond, again) }
	a.Go(again)
	if n := testing.AllocsPerRun(1000, func() {
		if !e.Step() {
			t.Fatal("sleeper has no wake pending")
		}
	}); n != 0 {
		t.Fatalf("a Sleep→wake cycle allocates %v times", n)
	}
}

// TestEventSize keeps the calendar's event in one 64-byte size class: every
// pending wake of a client-scale cell is one of these.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 64 {
		t.Fatalf("sizeof(Event) = %d, want at most 64", got)
	}
}
