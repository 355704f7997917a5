package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// TestActorSize pins the actor's footprint: client-scale workloads park
// hundreds of thousands of actors, so Cancel's state lives in padding,
// GetFlat's in the caller's Getter, and a wake event carries the actor
// instead of a cached closure.
func TestActorSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Actor{}); got != 80 {
		t.Fatalf("sizeof(Actor) = %d, want 80", got)
	}
}

// queueProgram runs one consumer/producer program on the process API or
// flat, and returns its log plus the kernel observables that define a
// trace. Two consumers park on the queue and are handed the items put at
// 1 s and 2 s; the items put at 3 s and 4 s arrive while both hold theirs,
// so each consumer's second GetFlat finds one buffered and continues
// without parking.
func queueProgram(flat bool) (log []string, fired, seq uint64) {
	e := NewEngine()
	q := NewQueue[int]()
	record := func(who string, item int) {
		log = append(log, fmt.Sprintf("%v %s got %d", e.Now(), who, item))
	}
	for c := 0; c < 2; c++ {
		name := fmt.Sprintf("c%d", c)
		hold := time.Duration(c+2) * time.Second
		if flat {
			a := &Actor{}
			a.Bind(e, name)
			g := &Getter[int]{}
			g.Bind(a)
			var got func(int)
			rounds := 0
			got = func(item int) {
				record(name, item)
				if rounds++; rounds == 2 {
					a.Finish()
					return
				}
				a.Sleep(hold, func() { q.GetFlat(g, got) })
			}
			a.Go(func() { q.GetFlat(g, got) })
		} else {
			e.Spawn(name, func(p *Proc) {
				for rounds := 0; rounds < 2; rounds++ {
					record(name, q.Get(p))
					if rounds == 0 {
						p.Sleep(hold)
					}
				}
			})
		}
	}
	for i := 1; i <= 4; i++ {
		i := i
		e.Schedule(time.Duration(i)*time.Second, func() { q.Put(i) })
	}
	e.Run()
	return log, e.EventsFired(), e.seq
}

// TestQueueGetFlatMatchesGet: GetFlat parks, hands over and continues
// exactly where Get does, so the same program traces identically.
func TestQueueGetFlatMatchesGet(t *testing.T) {
	pl, pf, ps := queueProgram(false)
	fl, ff, fs := queueProgram(true)
	if !reflect.DeepEqual(pl, fl) || pf != ff || ps != fs {
		t.Fatalf("proc run %v (fired=%d seq=%d)\nflat run %v (fired=%d seq=%d)", pl, pf, ps, fl, ff, fs)
	}
	if len(pl) != 4 {
		t.Fatalf("log %v, want 4 deliveries", pl)
	}
}

// cancelProgram parks three victim actors — one sleeping, one on a signal,
// one on a queue whose item a Put hands over in the very event that
// cancels it — beside a surviving consumer process, cancels each, and logs
// the unwinds and deliveries.
func cancelProgram() (log []string, fired, seq uint64) {
	e := NewEngine()
	q := NewQueue[int]()
	var sig Signal
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", e.Now())+fmt.Sprintf(format, args...))
	}
	sleeper, waiter, getter := &Actor{}, &Actor{}, &Actor{}
	sleeper.Bind(e, "sleeper")
	sleeper.Go(func() { sleeper.Sleep(10*time.Second, func() { note("sleeper woke"); sleeper.Finish() }) })

	waiter.Bind(e, "waiter")
	waiter.Go(func() { sig.WaitFlat(waiter, func() { note("waiter woke"); waiter.Finish() }) })

	getter.Bind(e, "getter")
	g := &Getter[int]{}
	g.Bind(getter)
	getter.Go(func() { q.GetFlat(g, func(i int) { note("getter got %d", i); getter.Finish() }) })

	// The survivor parks on the queue behind the getter and on the signal
	// behind the waiter.
	e.Spawn("survivor", func(p *Proc) {
		note("survivor got %d", q.Get(p))
		note("survivor got %d", q.Get(p))
		sig.Wait(p)
		note("survivor woke")
	})
	e.Schedule(time.Second, func() { sleeper.Cancel(func() { note("sleeper unwound") }) })
	e.Schedule(2*time.Second, func() {
		sig.CancelFlat(waiter)
		waiter.Cancel(func() { note("waiter unwound") })
		// The withdrawal takes the waiter off the signal at once: only the
		// survivor is left parked there.
		note("%d waiting", sig.Waiting())
	})
	e.Schedule(3*time.Second, func() {
		q.Put(7) // handed to the getter, whose wake the cancel pre-empts
		g.Cancel()
		getter.Cancel(func() { g.Reput(); note("getter unwound") })
	})
	e.Schedule(4*time.Second, func() { q.Put(8) })
	e.Schedule(5*time.Second, func() { sig.Fire() })
	e.Run()
	if !e.Drained() || e.LiveActors() != 0 || e.LiveProcs() != 0 {
		log = append(log, "not drained")
	}
	if q.Len() != 0 || q.Puts() != q.Gets() {
		log = append(log, fmt.Sprintf("queue holds %d, %d puts, %d gets", q.Len(), q.Puts(), q.Gets()))
	}
	return log, e.EventsFired(), e.seq
}

// TestActorCancelMatchesKill: cancelling a parked actor unwinds at the
// event and sequence number where a killed process used to run its defers,
// and a queue item handed over to the victim goes back to the head of the
// queue. The log, the events fired and the final sequence number were
// recorded from the same program written as processes and killed with the
// retired Proc.Kill; the actor run must reproduce all three.
func TestActorCancelMatchesKill(t *testing.T) {
	log, fired, seq := cancelProgram()
	want := []string{
		"1s sleeper unwound",
		"2s 0 waiting",
		"2s waiter unwound",
		"3s getter unwound",
		"4s survivor got 8",
		"4s survivor got 7",
		"5s survivor woke",
	}
	const wantFired, wantSeq = 14, 16
	if !reflect.DeepEqual(log, want) || fired != wantFired || seq != wantSeq {
		t.Fatalf("log %v (fired=%d seq=%d)\nwant %v (fired=%d seq=%d)", log, fired, seq, want, wantFired, wantSeq)
	}
}

// TestKillSleeping: cancelling a sleeping actor ends it at the cancel's
// instant. Its continuation never runs, and the sleep's wake is withdrawn,
// so Run does not wait the sleep out.
func TestKillSleeping(t *testing.T) {
	e := NewEngine()
	var a Actor
	a.Bind(e, "victim")
	reached := false
	a.Go(func() { a.Sleep(time.Hour, func() { reached = true; a.Finish() }) })
	e.Schedule(time.Second, func() { a.Cancel(nil) })
	e.Run()
	if reached {
		t.Fatal("cancelled actor ran past its sleep")
	}
	if a.Live() {
		t.Fatal("cancelled actor still live")
	}
	if e.Now() != time.Second {
		t.Fatalf("clock = %v; the cancel should not wait out the sleep", e.Now())
	}
	if !e.Drained() {
		t.Fatal("engine not drained after the cancel")
	}
}

// TestKillBeforeStart: an actor cancelled before its start event never
// runs its first step.
func TestKillBeforeStart(t *testing.T) {
	e := NewEngine()
	var a Actor
	a.Bind(e, "unborn")
	ran := false
	a.GoAt(time.Minute, func() { ran = true; a.Finish() })
	e.Schedule(time.Second, func() { a.Cancel(nil) })
	e.Run()
	if ran {
		t.Fatal("actor cancelled before start ran")
	}
	if a.Live() || !e.Drained() || e.Now() != time.Second {
		t.Fatalf("live=%v drained=%v now=%v; the cancelled start should end cleanly at 1s", a.Live(), e.Drained(), e.Now())
	}
}

// TestKillFinishedNoop: cancelling an actor that already finished does
// nothing; its unwind never runs.
func TestKillFinishedNoop(t *testing.T) {
	e := NewEngine()
	var a Actor
	a.Bind(e, "quick")
	a.Go(a.Finish)
	unwound := false
	e.Schedule(time.Second, func() { a.Cancel(func() { unwound = true }) })
	e.Run()
	if unwound || a.Live() {
		t.Fatalf("unwound=%v live=%v after cancelling a finished actor", unwound, a.Live())
	}
}

// TestKillDeferredCleanupRuns: a cancelled actor's unwind runs, at the
// cancel's instant.
func TestKillDeferredCleanupRuns(t *testing.T) {
	e := NewEngine()
	var a Actor
	a.Bind(e, "victim")
	cleanedAt := time.Duration(-1)
	a.Go(func() { a.Sleep(time.Hour, a.Finish) })
	e.Schedule(time.Second, func() { a.Cancel(func() { cleanedAt = e.Now() }) })
	e.Run()
	if cleanedAt != time.Second {
		t.Fatalf("unwind ran at %v, want 1s", cleanedAt)
	}
}

// TestActorCancelRestart: an actor cancelled off one signal and started
// again on another is woken only by the new one; the old signal holds
// nothing of it. Cancel refuses an actor still parked on a signal.
func TestActorCancelRestart(t *testing.T) {
	e := NewEngine()
	var old, fresh Signal
	var a Actor
	a.Bind(e, "victim")
	var log []string
	a.Go(func() { old.WaitFlat(&a, func() { log = append(log, "woke on old"); a.Finish() }) })
	e.Schedule(time.Second, func() {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Cancel of an actor parked on a signal did not panic")
				}
			}()
			a.Cancel(nil)
		}()
		old.CancelFlat(&a)
		a.Cancel(nil)
		if old.Waiting() != 0 {
			t.Errorf("old signal still holds %d waiters after the cancel", old.Waiting())
		}
	})
	e.Schedule(2*time.Second, func() {
		a.Go(func() {
			fresh.WaitFlat(&a, func() { log = append(log, fmt.Sprintf("%v woke on fresh", e.Now())); a.Finish() })
		})
	})
	e.Schedule(3*time.Second, old.Fire)
	e.Schedule(4*time.Second, fresh.Fire)
	e.Run()
	if want := []string{"4s woke on fresh"}; !reflect.DeepEqual(log, want) || a.Live() {
		t.Fatalf("log %v live=%v, want %v", log, a.Live(), want)
	}
}

// TestActorCancelIdempotent: a second Cancel, or a Cancel after Finish,
// does nothing.
func TestActorCancelIdempotent(t *testing.T) {
	e := NewEngine()
	var a Actor
	a.Bind(e, "victim")
	unwinds := 0
	a.Go(func() { a.Sleep(time.Hour, a.Finish) })
	e.Schedule(time.Second, func() {
		a.Cancel(func() { unwinds++ })
		a.Cancel(func() { unwinds++ })
	})
	e.Schedule(2*time.Second, func() { a.Cancel(func() { unwinds++ }) })
	e.Run()
	if unwinds != 1 || a.Live() || e.Now() != 2*time.Second {
		t.Fatalf("unwinds=%d live=%v now=%v, want one unwind and Run ending at 2s", unwinds, a.Live(), e.Now())
	}
}

// TestDaemonActor: a daemon actor runs while foreground work exists but
// neither its wakes nor its liveness keep Run going, like a daemon
// process.
func TestDaemonActor(t *testing.T) {
	e := NewEngine()
	var a Actor
	a.BindDaemon(e, "ticker")
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		a.Sleep(time.Second, tick)
	}
	a.Go(tick)
	if e.LiveActors() != 0 {
		t.Fatalf("LiveActors = %d, want 0 for a daemon", e.LiveActors())
	}
	e.Schedule(5*time.Second+time.Millisecond, func() {})
	e.Run()
	if ticks != 6 || e.Now() != 5*time.Second+time.Millisecond {
		t.Fatalf("ticks=%d now=%v, want 6 ticks and Run ending with the foreground", ticks, e.Now())
	}
	if !e.Drained() {
		t.Fatal("engine with only daemon work should report drained")
	}
}
