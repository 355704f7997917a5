package netsim

import (
	"testing"
	"time"

	"azureobs/internal/sim"
)

// Components returns the number of connected components in the active flow
// graph: flows are connected when their paths share a link. Flows in
// different components can never influence each other's rates (a solve
// touches exactly one component). Links no flow currently crosses count
// toward no component. The query walks link membership with its own epoch,
// so it never disturbs allocation. It and SameComponent are test oracles for
// the component-local solver.
func (f *Fabric) Components() int {
	f.newWalk()
	n := 0
	for i := range f.state {
		if f.state[i].epoch != f.epoch {
			n++
			j := len(f.reached)
			f.mark(int32(i))
			f.walk(j)
		}
	}
	return n
}

// SameComponent reports whether two active flows share a connected component
// — whether any chain of overlapping paths couples their rate allocations.
// Flows in different components are independent: moving them onto separate
// fabrics cannot change either one's trace. A finished flow is in no component.
func (f *Fabric) SameComponent(a, b *Flow) bool {
	if a.index < 0 || b.index < 0 {
		return false
	}
	f.newWalk()
	f.mark(int32(a.index))
	f.walk(0)
	return f.state[b.index].epoch == f.epoch
}

// TestComponentsPartition pins the partition oracle: disjoint
// client↔service pairs are separate components, flows chained through any
// shared link collapse into one, and querying between solves must not
// disturb rate allocation (the solver restamps its scratch every pass).
func TestComponentsPartition(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)

	if fab.Components() != 0 {
		t.Fatalf("empty fabric has %d components", fab.Components())
	}

	// Four disjoint pairs, each flow on its own private two-link path.
	const pairs = 4
	flows := make([]*Flow, pairs)
	for i := 0; i < pairs; i++ {
		a := fab.NewLink("up", 10*MBps)
		b := fab.NewLink("down", 10*MBps)
		flows[i] = fab.StartFlow(100*MB, a, b)
	}
	if got := fab.Components(); got != pairs {
		t.Fatalf("disjoint pairs: %d components, want %d", got, pairs)
	}
	if fab.SameComponent(flows[0], flows[1]) {
		t.Fatal("disjoint flows report a shared component")
	}
	if !fab.SameComponent(flows[0], flows[0]) {
		t.Fatal("flow not in its own component")
	}

	// One shared egress link chains two of the pairs together.
	shared := fab.NewLink("shared-egress", 10*MBps)
	bridge0 := fab.StartFlow(100*MB, flows[0].path[0], shared)
	bridge1 := fab.StartFlow(100*MB, flows[1].path[0], shared)
	if got := fab.Components(); got != pairs-1 {
		t.Fatalf("after bridging: %d components, want %d", got, pairs-1)
	}
	if !fab.SameComponent(flows[0], flows[1]) {
		t.Fatal("bridged flows still report separate components")
	}
	if fab.SameComponent(flows[0], flows[2]) {
		t.Fatal("unbridged flow pulled into the bridged component")
	}

	// The query is read-only with respect to allocation: the solver's next
	// pass restamps everything, so rates match a never-queried fabric.
	fab.Abandon(bridge0)
	fab.Abandon(bridge1)
	for _, fl := range flows {
		fab.Abandon(fl)
	}
	if got := fab.Components(); got != 0 {
		t.Fatalf("after abandoning all flows: %d components", got)
	}
}

// TestComponentsQueryPreservesTrace runs the same contended workload with
// and without interleaved Components queries and requires identical finish
// times — the oracle must be a pure observer.
func TestComponentsQueryPreservesTrace(t *testing.T) {
	run := func(query bool) []int64 {
		eng := sim.NewEngine()
		fab := NewFabric(eng)
		shared := fab.NewLink("shared", 10*MBps)
		var done []int64
		for i := 0; i < 3; i++ {
			i := i
			eng.Spawn("tx", func(p *sim.Proc) {
				p.Sleep(time.Duration(i) * time.Millisecond)
				fab.Transfer(p, 25*MB, shared)
				done = append(done, int64(p.Now()))
			})
		}
		if query {
			for i := 1; i <= 8; i++ {
				eng.ScheduleDaemon(time.Duration(i)*time.Second, func() {
					fab.Components()
				})
			}
		}
		eng.Run()
		return done
	}
	plain, queried := run(false), run(true)
	for i := range plain {
		if plain[i] != queried[i] {
			t.Fatalf("finish %d moved: %v vs %v", i, plain[i], queried[i])
		}
	}
}
