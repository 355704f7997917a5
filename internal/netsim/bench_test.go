package netsim

import (
	"fmt"
	"testing"
	"time"

	"azureobs/internal/sim"
)

// fig1Topology builds the blob-download shape of the paper's Section 3.1
// sweep: one shared service trunk with a concurrency-dependent capacity
// profile, plus one private access link per client.
func fig1Topology(fab *Fabric, clients int) (trunk *Link, nics []*Link) {
	trunk = fab.NewLink("trunk", 400*MBps)
	trunk.SetCapacityFn(CapacityProfile(
		ProfilePoint{N: 1, Capacity: 50 * MBps},
		ProfilePoint{N: 8, Capacity: 110 * MBps},
		ProfilePoint{N: 32, Capacity: 208 * MBps},
		ProfilePoint{N: 128, Capacity: 393 * MBps},
		ProfilePoint{N: 192, Capacity: 388 * MBps},
	))
	nics = make([]*Link, clients)
	for i := range nics {
		nics[i] = fab.NewLink("nic", 13*MBps)
	}
	return trunk, nics
}

// uncheckedEngines turns off, for the rest of the benchmark, the invariant
// checking TestMain enables for every engine: benchmarks time the path
// production runs, and the solver's check adds about a third to a
// reallocation.
func uncheckedEngines(b *testing.B) {
	sim.SetDefaultInvariants(false)
	b.Cleanup(func() { sim.SetDefaultInvariants(true) })
}

// BenchmarkFlowChurn measures one arrival+departure churn cycle against a
// standing population of n-1 flows — the hot path of every closed-loop
// client sweep. Each iteration is two reallocations (one per churn event).
func BenchmarkFlowChurn(b *testing.B) {
	uncheckedEngines(b)
	for _, n := range []int{1, 32, 192} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			eng := sim.NewEngine()
			fab := NewFabric(eng)
			trunk, nics := fig1Topology(fab, n)
			flows := make([]*Flow, n)
			for i := range flows {
				flows[i] = fab.StartFlow(1000*GB, trunk, nics[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot := i % n
				fab.Abandon(flows[slot])
				flows[slot] = fab.StartFlow(1000*GB, trunk, nics[slot])
			}
		})
	}
}

// BenchmarkFlowChurnStaggered is the same churn measured while the engine
// clock advances, so settle/reschedule run against nonzero elapsed time.
func BenchmarkFlowChurnStaggered(b *testing.B) {
	uncheckedEngines(b)
	const n = 192
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	trunk, nics := fig1Topology(fab, n)
	flows := make([]*Flow, n)
	for i := range flows {
		flows[i] = fab.StartFlow(1000*GB, trunk, nics[i])
	}
	next := eng.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next += time.Microsecond
		eng.RunUntil(next)
		slot := i % n
		fab.Abandon(flows[slot])
		flows[slot] = fab.StartFlow(1000*GB, trunk, nics[slot])
	}
}

// BenchmarkFlowChurnComponents churns flows in a fabric shaped like a blob
// service under mixed load: 32 hot-blob groups of 30 downloads, each
// download crossing its blob's egress trunk and a private session link,
// beside 1,000 uploads that cross a private session link and one shared
// ingress trunk. That is 33 disjoint components. Each iteration replaces
// one download and one upload (four reallocations), so the cost a change
// pays for components it cannot reach shows directly. The clock never moves
// and the ingress has no capacity profile, so settling costs nothing here;
// BenchmarkFlowChurnComponentsTimed covers that.
func BenchmarkFlowChurnComponents(b *testing.B) {
	uncheckedEngines(b)
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	ingress := fab.NewLink("blob-ingress", 125*MBps)
	egress := make([]*Link, churnGroups)
	for g := range egress {
		egress[g] = fab.NewLink("blob-egress", 400*MBps)
	}
	down := make([]*Link, churnGroups*churnPerGroup)
	downs := make([]*Flow, len(down))
	for i := range down {
		down[i] = fab.NewLink("client-down", 13*MBps)
		downs[i] = fab.StartFlow(1000*GB, egress[i%churnGroups], down[i])
	}
	up := make([]*Link, churnUploaders)
	ups := make([]*Flow, churnUploaders)
	for i := range up {
		up[i] = fab.NewLink("client-up", 6.5*MBps)
		ups[i] = fab.StartFlow(1000*GB, up[i], ingress)
	}
	if got := fab.Components(); got != churnGroups+1 {
		b.Fatalf("%d components, want %d", got, churnGroups+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := i % len(downs)
		fab.Abandon(downs[d])
		downs[d] = fab.StartFlow(1000*GB, egress[d%churnGroups], down[d])
		u := i % churnUploaders
		fab.Abandon(ups[u])
		ups[u] = fab.StartFlow(1000*GB, up[u], ingress)
	}
}

// BenchmarkFlowChurnComponentsTimed measures one completion of the timed
// churn: a flow leaves and its session's next flow joins (two
// reallocations) while about 2,000 flows are in flight and the clock moves.
func BenchmarkFlowChurnComponentsTimed(b *testing.B) {
	uncheckedEngines(b)
	c := newTimedChurn()
	for c.fab.ActiveFlows() < len(c.slots) {
		c.eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.eng.Step()
	}
}

// BenchmarkSweepTransfers runs a closed-loop transfer sweep end to end:
// every client repeatedly transfers through the shared trunk, so the
// benchmark covers the full event loop (schedule, settle, solve, complete).
func BenchmarkSweepTransfers(b *testing.B) {
	uncheckedEngines(b)
	for _, n := range []int{32, 192} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine()
				fab := NewFabric(eng)
				trunk, nics := fig1Topology(fab, n)
				for c := 0; c < n; c++ {
					c := c
					eng.Spawn("tx", func(p *sim.Proc) {
						for r := 0; r < 4; r++ {
							fab.Transfer(p, 8*MB, trunk, nics[c])
						}
					})
				}
				eng.Run()
			}
		})
	}
}
