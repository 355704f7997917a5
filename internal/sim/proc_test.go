package sim

import (
	"testing"
	"time"
)

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wokeAt []time.Duration
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		wokeAt = append(wokeAt, p.Now())
		p.Sleep(2 * time.Second)
		wokeAt = append(wokeAt, p.Now())
	})
	e.Run()
	if len(wokeAt) != 2 || wokeAt[0] != 3*time.Second || wokeAt[1] != 5*time.Second {
		t.Fatalf("wokeAt = %v, want [3s 5s]", wokeAt)
	}
	if !e.Drained() {
		t.Fatal("engine not drained after process finished")
	}
}

func TestProcInterleavesWithEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("p", func(p *Proc) {
		order = append(order, "p@0")
		p.Sleep(2 * time.Second)
		order = append(order, "p@2")
	})
	e.Schedule(time.Second, func() { order = append(order, "ev@1") })
	e.Run()
	want := []string{"p@0", "ev@1", "p@2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("p", func(p *Proc) { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("spawn order not FIFO: %v", order)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	e := NewEngine()
	var started time.Duration = -1
	e.SpawnAt(4*time.Second, "late", func(p *Proc) { started = p.Now() })
	e.Run()
	if started != 4*time.Second {
		t.Fatalf("started at %v, want 4s", started)
	}
}

func TestYield(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	e.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestUserPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Error("user panic swallowed by kernel")
		}
	}()
	e.Run()
}

func TestSleepZeroRunsOthersFirst(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Proc) {
		p.Sleep(0)
		order = append(order, "a")
	})
	e.Schedule(0, func() { order = append(order, "ev") })
	e.Run()
	// a spawns (seq 0) and immediately re-queues behind ev (seq 1).
	if len(order) != 2 || order[0] != "ev" || order[1] != "a" {
		t.Fatalf("order = %v, want [ev a]", order)
	}
}

func TestManyProcessesDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for i := 0; i < 20; i++ {
			name := string(rune('a' + i))
			d := time.Duration((i*7)%13) * time.Millisecond
			e.Spawn(name, func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(d + time.Millisecond)
					trace = append(trace, p.Name())
				}
			})
		}
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleaving at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestLiveProcsAccounting(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) { p.Sleep(time.Second) })
	e.Spawn("b", func(p *Proc) { p.Sleep(2 * time.Second) })
	if e.LiveProcs() != 2 {
		t.Fatalf("LiveProcs = %d, want 2", e.LiveProcs())
	}
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after run, want 0", e.LiveProcs())
	}
}
