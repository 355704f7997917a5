package sim

import (
	"fmt"
	"testing"
	"time"
)

// driveMachine is a small flat state machine: three sleeps of 1s, 2s and
// 3s, then a wait on sig, logging each step's instant.
func driveMachine(a *Actor, sig *Signal, log func(string), done func()) {
	var step func(i int)
	step = func(i int) {
		log(fmt.Sprintf("step%d@%v", i, a.Now()))
		if i == 3 {
			sig.WaitFlat(a, func() {
				log(fmt.Sprintf("woke@%v", a.Now()))
				done()
			})
			return
		}
		a.Sleep(time.Duration(i+1)*time.Second, func() { step(i + 1) })
	}
	step(0)
}

// driveWorld runs driveMachine once against interleaved kernel events at
// the machine's own wake instants (ties break by sequence number) and
// returns the merged log, events fired and the final clock.
func driveWorld(start func(e *Engine, sig *Signal, log func(string))) ([]string, uint64, time.Duration) {
	e := NewEngine()
	var sig Signal
	var out []string
	log := func(s string) { out = append(out, s) }
	start(e, &sig, log)
	for _, at := range []time.Duration{time.Second, 3 * time.Second, 6 * time.Second} {
		at := at
		e.Schedule(at, func() { log(fmt.Sprintf("tick@%v", at)) })
	}
	e.Schedule(10*time.Second, sig.Fire)
	e.Run()
	return out, e.EventsFired(), e.Now()
}

// TestDriveMatchesKernelActor checks the Drive contract: the same flat
// machine run by a process through Drive and by a kernel-driven actor
// produces the same log interleaving, the same event count and the same
// final clock — every wake costs the same one event either way.
func TestDriveMatchesKernelActor(t *testing.T) {
	kLog, kFired, kEnd := driveWorld(func(e *Engine, sig *Signal, log func(string)) {
		a := &Actor{}
		a.Bind(e, "kernel")
		a.Go(func() { driveMachine(a, sig, log, a.Finish) })
	})
	returned := false
	pLog, pFired, pEnd := driveWorld(func(e *Engine, sig *Signal, log func(string)) {
		e.Spawn("proc", func(p *Proc) {
			p.Drive(func(a *Actor) { driveMachine(a, sig, log, func() {}) })
			returned = true
		})
	})
	if !returned {
		t.Fatal("Drive did not return after the machine finished")
	}
	if fmt.Sprint(kLog) != fmt.Sprint(pLog) || kFired != pFired || kEnd != pEnd {
		t.Fatalf("kernel actor: %v (%d events, end %v)\nprocess: %v (%d events, end %v)",
			kLog, kFired, kEnd, pLog, pFired, pEnd)
	}
}

// TestDriveNested runs a blocking call inside a continuation of an outer
// Drive on the same process: the inner machine completes first, then the
// outer one resumes with its own continuation.
func TestDriveNested(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	e.Spawn("nested", func(p *Proc) {
		p.Drive(func(a *Actor) {
			a.Sleep(time.Second, func() {
				p.Drive(func(a *Actor) { a.Sleep(2*time.Second, func() {}) })
				got = append(got, p.Now())
				a.Sleep(3*time.Second, func() { got = append(got, p.Now()) })
			})
		})
		got = append(got, p.Now())
	})
	e.Run()
	want := []time.Duration{3 * time.Second, 6 * time.Second, 6 * time.Second}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("nested drive instants = %v, want %v", got, want)
	}
}
