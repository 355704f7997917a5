package sim

import (
	"testing"
	"time"
)

func TestSignalFireReleasesAll(t *testing.T) {
	e := NewEngine()
	var s Signal
	released := 0
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) {
			s.Wait(p)
			released++
		})
	}
	e.Schedule(time.Second, func() { s.Fire() })
	e.Run()
	if released != 4 {
		t.Fatalf("released = %d, want 4", released)
	}
	if s.Waiting() != 0 {
		t.Fatalf("Waiting = %d, want 0", s.Waiting())
	}
}

func TestSignalFireOne(t *testing.T) {
	e := NewEngine()
	var s Signal
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			s.Wait(p)
			order = append(order, i)
		})
	}
	e.Schedule(time.Second, func() {
		if !s.FireOne() {
			t.Error("FireOne found no waiter")
		}
	})
	e.Schedule(2*time.Second, func() { s.FireOne() })
	e.Schedule(3*time.Second, func() { s.FireOne() })
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("release order = %v, want FIFO", order)
		}
	}
}

func TestSignalFireNobodyWaiting(t *testing.T) {
	var s Signal
	s.Fire() // must not panic
	if s.FireOne() {
		t.Fatal("FireOne with no waiters returned true")
	}
}

func TestSignalLateWaiterMissesFire(t *testing.T) {
	e := NewEngine()
	var s Signal
	var lateAt time.Duration = -1
	e.Schedule(time.Second, func() { s.Fire() })
	e.Spawn("late", func(p *Proc) {
		p.Sleep(2 * time.Second)
		s.Wait(p)
		lateAt = p.Now()
	})
	e.Schedule(5*time.Second, func() { s.Fire() })
	e.Run()
	if lateAt != 5*time.Second {
		t.Fatalf("late waiter released at %v, want 5s (second fire)", lateAt)
	}
}

// TestSignalKillWaiter: an actor withdrawn from a signal (CancelFlat,
// then Cancel) leaves no waiter behind, and the next Fire does not wake it.
func TestSignalKillWaiter(t *testing.T) {
	e := NewEngine()
	var s Signal
	var victim Actor
	victim.Bind(e, "victim")
	victim.Go(func() {
		s.WaitFlat(&victim, func() {
			t.Error("victim released after the cancel")
			victim.Finish()
		})
	})
	e.Schedule(time.Second, func() {
		s.CancelFlat(&victim)
		victim.Cancel(nil)
	})
	e.Schedule(2*time.Second, func() { s.Fire() })
	e.Run()
	if victim.Live() || s.Waiting() != 0 || !e.Drained() {
		t.Fatalf("live=%v waiting=%d drained=%v; the cancelled waiter did not clean up", victim.Live(), s.Waiting(), e.Drained())
	}
}

func TestSignalFiresCounter(t *testing.T) {
	var s Signal
	s.Fire()
	s.Fire()
	if s.Fires() != 2 {
		t.Fatalf("Fires = %d, want 2", s.Fires())
	}
}
