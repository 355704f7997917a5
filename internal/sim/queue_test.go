package sim

import (
	"testing"
	"time"
)

func TestQueuePutThenGet(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	var got []int
	e.Spawn("c", func(p *Proc) {
		got = append(got, q.Get(p))
		got = append(got, q.Get(p))
	})
	e.Schedule(0, func() { q.Put(1); q.Put(2) })
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got = %v, want [1 2]", got)
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string]()
	var at time.Duration
	var item string
	e.Spawn("c", func(p *Proc) {
		item = q.Get(p)
		at = p.Now()
	})
	e.Schedule(7*time.Second, func() { q.Put("late") })
	e.Run()
	if item != "late" || at != 7*time.Second {
		t.Fatalf("got %q at %v, want \"late\" at 7s", item, at)
	}
}

func TestQueueConsumersFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	var got []struct{ consumer, item int }
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("c", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			v := q.Get(p)
			got = append(got, struct{ consumer, item int }{i, v})
		})
	}
	e.Schedule(time.Second, func() {
		q.Put(100)
		q.Put(101)
		q.Put(102)
	})
	e.Run()
	for i, g := range got {
		if g.consumer != i || g.item != 100+i {
			t.Fatalf("delivery %d = %+v, want consumer %d item %d", i, g, i, 100+i)
		}
	}
}

func TestQueueTryGet(t *testing.T) {
	q := NewQueue[int]()
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	q.Put(5)
	v, ok := q.TryGet()
	if !ok || v != 5 {
		t.Fatalf("TryGet = %d,%v want 5,true", v, ok)
	}
}

// TestQueueKilledConsumerRequeuesItem: a Put hands the item to a parked
// actor, then the actor is cancelled in the same instant, pre-empting its
// wake. Its unwind (Getter.Reput) puts the item back, so it is not lost.
func TestQueueKilledConsumerRequeuesItem(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	var victim Actor
	victim.Bind(e, "victim")
	var g Getter[int]
	g.Bind(&victim)
	victim.Go(func() {
		q.GetFlat(&g, func(int) {
			t.Error("victim received the item despite the cancel")
			victim.Finish()
		})
	})
	e.Schedule(time.Second, func() {
		q.Put(42)
		g.Cancel()
		victim.Cancel(g.Reput)
	})
	var rescued int
	e.Spawn("rescuer", func(p *Proc) {
		p.Sleep(2 * time.Second)
		rescued = q.Get(p)
	})
	e.Run()
	if rescued != 42 {
		t.Fatalf("rescued = %d, want 42 (item lost on cancel)", rescued)
	}
}

// TestQueueKilledWaiterRemoved: a parked actor withdrawn with
// Getter.Cancel leaves the queue at once, so the next Put goes to the
// consumer behind it.
func TestQueueKilledWaiterRemoved(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	var victim Actor
	victim.Bind(e, "victim")
	var g Getter[int]
	g.Bind(&victim)
	victim.Go(func() { q.GetFlat(&g, func(int) { victim.Finish() }) })
	e.Schedule(time.Second, func() {
		g.Cancel()
		victim.Cancel(nil)
	})
	var got int
	e.Spawn("other", func(p *Proc) {
		p.Sleep(2 * time.Second)
		got = q.Get(p)
	})
	e.Schedule(3*time.Second, func() { q.Put(7) })
	e.Run()
	if got != 7 {
		t.Fatalf("other consumer got %d, want 7", got)
	}
	if !e.Drained() {
		t.Fatal("engine not drained")
	}
}

func TestQueueCounters(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	e.Spawn("c", func(p *Proc) {
		q.Get(p)
		q.Get(p)
	})
	e.Schedule(0, func() { q.Put(1); q.Put(2); q.Put(3) })
	e.Run()
	if q.Puts() != 3 || q.Gets() != 2 || q.Len() != 1 {
		t.Fatalf("Puts=%d Gets=%d Len=%d, want 3,2,1", q.Puts(), q.Gets(), q.Len())
	}
}
