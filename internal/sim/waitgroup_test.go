package sim

import (
	"testing"
	"time"
)

func TestWaitGroupForkJoin(t *testing.T) {
	e := NewEngine()
	var wg WaitGroup
	finished := 0
	var joinAt time.Duration
	e.Spawn("parent", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			d := time.Duration(i) * time.Second
			wg.Go(e, "child", func(q *Proc) {
				q.Sleep(d)
				finished++
			})
		}
		wg.Wait(p)
		joinAt = p.Now()
	})
	e.Run()
	if finished != 3 {
		t.Fatalf("finished = %d", finished)
	}
	if joinAt != 3*time.Second {
		t.Fatalf("join at %v, want 3s (slowest child)", joinAt)
	}
}

func TestWaitGroupZeroCountReturnsImmediately(t *testing.T) {
	e := NewEngine()
	var wg WaitGroup
	var at time.Duration = -1
	e.Spawn("p", func(p *Proc) {
		wg.Wait(p)
		at = p.Now()
	})
	e.Run()
	if at != 0 {
		t.Fatalf("empty wait blocked until %v", at)
	}
}

func TestWaitGroupManualAddDone(t *testing.T) {
	e := NewEngine()
	var wg WaitGroup
	wg.Add(2)
	released := false
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		released = true
	})
	e.Schedule(time.Second, func() { wg.Done() })
	e.Schedule(2*time.Second, func() { wg.Done() })
	e.Run()
	if !released {
		t.Fatal("waiter not released")
	}
	if wg.Count() != 0 {
		t.Fatalf("count = %d", wg.Count())
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	var wg WaitGroup
	defer func() {
		if recover() == nil {
			t.Fatal("negative count did not panic")
		}
	}()
	wg.Done()
}
