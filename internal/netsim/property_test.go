package netsim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"azureobs/internal/sim"
)

// buildRandomScenario creates links and flows from fuzz input and returns
// the fabric with all flows injected (no engine run yet).
func buildRandomScenario(seed uint64, nLinksRaw, nFlowsRaw uint8) (*Fabric, []*Flow, []*Link) {
	rng := rand.New(rand.NewPCG(seed, 99))
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	nLinks := int(nLinksRaw%6) + 1
	nFlows := int(nFlowsRaw%24) + 1
	links := make([]*Link, nLinks)
	for i := range links {
		links[i] = fab.NewLink("l", Bandwidth(1+rng.Float64()*99)*MBps)
	}
	flows := make([]*Flow, nFlows)
	for i := range flows {
		// Random non-empty path of 1-3 distinct links.
		pathLen := rng.IntN(3) + 1
		if pathLen > nLinks {
			pathLen = nLinks
		}
		perm := rng.Perm(nLinks)
		path := make([]*Link, pathLen)
		for j := 0; j < pathLen; j++ {
			path[j] = links[perm[j]]
		}
		flows[i] = fab.StartFlow(int64(1+rng.IntN(1000))*MB, path...)
	}
	return fab, flows, links
}

// Property: the max-min allocation never oversubscribes any link, and every
// flow gets a strictly positive rate.
func TestPropertyMaxMinFeasibleAndLive(t *testing.T) {
	f := func(seed uint64, nl, nf uint8) bool {
		_, flows, links := buildRandomScenario(seed, nl, nf)
		loads := map[*Link]float64{}
		for _, fl := range flows {
			if fl.st().rate <= 0 {
				return false // starvation
			}
			for _, l := range fl.path {
				loads[l] += fl.st().rate
			}
		}
		for _, l := range links {
			if load, ok := loads[l]; ok {
				if load > float64(l.effectiveCap(len(l.flows)))*(1+1e-9) {
					return false // oversubscribed
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the allocation is max-min fair in the Pareto sense — every flow
// is bottlenecked by at least one saturated link on its path (no flow could
// be sped up without slowing another).
func TestPropertyEveryFlowBottlenecked(t *testing.T) {
	f := func(seed uint64, nl, nf uint8) bool {
		_, flows, _ := buildRandomScenario(seed, nl, nf)
		loads := map[*Link]float64{}
		for _, fl := range flows {
			for _, l := range fl.path {
				loads[l] += fl.st().rate
			}
		}
		for _, fl := range flows {
			saturated := false
			for _, l := range fl.path {
				if loads[l] >= float64(l.effectiveCap(len(l.flows)))*(1-1e-6) {
					saturated = true
					break
				}
			}
			if !saturated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: flows sharing an identical path receive equal rates.
func TestPropertyEqualPathEqualRate(t *testing.T) {
	f := func(seed uint64, nFlowsRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		eng := sim.NewEngine()
		fab := NewFabric(eng)
		a := fab.NewLink("a", Bandwidth(1+rng.Float64()*50)*MBps)
		b := fab.NewLink("b", Bandwidth(1+rng.Float64()*50)*MBps)
		n := int(nFlowsRaw%10) + 2
		flows := make([]*Flow, n)
		for i := range flows {
			flows[i] = fab.StartFlow(int64(1+rng.IntN(100))*MB, a, b)
		}
		first := flows[0].st().rate
		for _, fl := range flows[1:] {
			if diff := fl.st().rate - first; diff > 1e-6*first || diff < -1e-6*first {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: total delivered bytes equal total injected bytes once every
// transfer completes, and the elapsed time respects the tightest link.
func TestPropertyConservationUnderChurn(t *testing.T) {
	f := func(seed uint64, nFlowsRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		eng := sim.NewEngine()
		fab := NewFabric(eng)
		trunk := fab.NewLink("trunk", Bandwidth(10+rng.Float64()*90)*MBps)
		n := int(nFlowsRaw%12) + 1
		var totalBytes int64
		var last time.Duration
		done := 0
		for i := 0; i < n; i++ {
			size := int64(1+rng.IntN(200)) * MB
			start := time.Duration(rng.IntN(10000)) * time.Millisecond
			totalBytes += size
			eng.SpawnAt(start, "tx", func(p *sim.Proc) {
				fab.Transfer(p, size, trunk)
				done++
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		eng.Run()
		if done != n || fab.ActiveFlows() != 0 {
			return false
		}
		// All bytes crossed one link: elapsed ≥ bytes/capacity.
		minTime := float64(totalBytes) / float64(trunk.Capacity())
		return last.Seconds() >= minTime*(1-1e-9)-0.011
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// scratchRates recomputes the max-min fair allocation from scratch with an
// independent map-based progressive-filling solver — the seed implementation
// the incremental fast path replaced — without touching any fabric state.
// It is the oracle for the incremental-consistency properties below.
func scratchRates(f *Fabric) map[*Flow]float64 {
	type linkState struct {
		capRem float64
		unfix  int
	}
	ls := map[*Link]*linkState{}
	for _, fl := range f.flows {
		for _, l := range fl.path {
			st := ls[l]
			if st == nil {
				st = &linkState{capRem: float64(l.effectiveCap(len(l.flows)))}
				ls[l] = st
			}
			st.unfix++
		}
	}
	rates := map[*Flow]float64{}
	unfixed := map[*Flow]bool{}
	for _, fl := range f.flows {
		unfixed[fl] = true
	}
	for len(unfixed) > 0 {
		var bottleneck *Link
		share := math.Inf(1)
		for _, fl := range f.flows {
			if !unfixed[fl] {
				continue
			}
			for _, l := range fl.path {
				st := ls[l]
				if st.unfix == 0 {
					continue
				}
				if s := st.capRem / float64(st.unfix); s < share {
					share = s
					bottleneck = l
				}
			}
		}
		if bottleneck == nil {
			for fl := range unfixed {
				rates[fl] = math.Inf(1)
			}
			break
		}
		if share < 0 {
			share = 0
		}
		for _, fl := range f.flows {
			if !unfixed[fl] {
				continue
			}
			on := false
			for _, l := range fl.path {
				if l == bottleneck {
					on = true
					break
				}
			}
			if !on {
				continue
			}
			rates[fl] = share
			for _, l := range fl.path {
				st := ls[l]
				st.capRem -= share
				if st.capRem < 0 {
					st.capRem = 0
				}
				st.unfix--
			}
			delete(unfixed, fl)
		}
	}
	return rates
}

// assertMatchesScratch compares every live flow's incremental rate and
// predicted completion time bitwise against the from-scratch oracle. That
// the fabric's one completion event sits at the earliest prediction is
// checked by the fabric itself after every reallocation, as invariants are
// on throughout this package (TestMain).
func assertMatchesScratch(f *Fabric, now time.Duration) string {
	want := scratchRates(f)
	for _, fl := range f.flows {
		if w := want[fl]; fl.st().rate != w {
			return fmt.Sprintf("flow rate %v, from-scratch solver says %v (Δbits)", fl.st().rate, w)
		}
		if fl.st().rate <= 0 {
			if fl.st().at >= 0 {
				return "stalled flow still holds a completion prediction"
			}
			continue
		}
		var at time.Duration
		if math.IsInf(fl.st().rate, 1) || fl.st().remaining <= 0.5 {
			at = now
		} else {
			at = now + time.Duration(fl.st().remaining/fl.st().rate*float64(time.Second))
			if at <= now {
				at = now + 1
			}
		}
		if fl.st().at < 0 {
			return "live flow has no completion prediction"
		}
		if got := fl.st().at; got < at {
			// A kept prediction may never be earlier than the fresh one;
			// equal is the required case (reschedule recomputes every time).
			return fmt.Sprintf("completion predicted at %v, fresh prediction %v", got, at)
		} else if got != at {
			return fmt.Sprintf("stale completion prediction: %v vs predicted %v", got, at)
		}
	}
	return ""
}

// Property: after every arrival and departure in a random churn sequence at
// a single instant, the incremental solver's rates and completion times are
// bit-identical to a from-scratch recomputation.
func TestPropertyIncrementalMatchesScratchStatic(t *testing.T) {
	f := func(seed uint64, nLinksRaw, opsRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 271))
		eng := sim.NewEngine()
		fab := NewFabric(eng)
		nLinks := int(nLinksRaw%6) + 1
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = fab.NewLink("l", Bandwidth(1+rng.Float64()*99)*MBps)
		}
		var live []*Flow
		ops := int(opsRaw%40) + 10
		for op := 0; op < ops; op++ {
			if len(live) > 0 && rng.IntN(3) == 0 {
				i := rng.IntN(len(live))
				fab.Abandon(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				pathLen := rng.IntN(3) + 1
				if pathLen > nLinks {
					pathLen = nLinks
				}
				perm := rng.Perm(nLinks)
				path := make([]*Link, pathLen)
				for j := range path {
					path[j] = links[perm[j]]
				}
				live = append(live, fab.StartFlow(int64(1+rng.IntN(1000))*MB, path...))
			}
			if msg := assertMatchesScratch(fab, eng.Now()); msg != "" {
				t.Logf("seed=%d op=%d: %s", seed, op, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the same consistency holds while virtual time advances, so the
// check also exercises settle, the event-keep path in reschedule, and
// component skipping against partially-delivered flows.
func TestPropertyIncrementalMatchesScratchTimed(t *testing.T) {
	f := func(seed uint64, nLinksRaw, opsRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 997))
		eng := sim.NewEngine()
		fab := NewFabric(eng)
		nLinks := int(nLinksRaw%5) + 2
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = fab.NewLink("l", Bandwidth(1+rng.Float64()*99)*MBps)
		}
		var live []*Flow
		ops := int(opsRaw%30) + 10
		for op := 0; op < ops; op++ {
			// Let the simulation advance; completions prune `live`.
			eng.RunUntil(eng.Now() + time.Duration(rng.IntN(500))*time.Millisecond)
			n := 0
			for _, fl := range live {
				if !fl.completed {
					live[n] = fl
					n++
				}
			}
			live = live[:n]
			if len(live) > 0 && rng.IntN(3) == 0 {
				i := rng.IntN(len(live))
				fab.Abandon(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				pathLen := rng.IntN(3) + 1
				if pathLen > nLinks {
					pathLen = nLinks
				}
				perm := rng.Perm(nLinks)
				path := make([]*Link, pathLen)
				for j := range path {
					path[j] = links[perm[j]]
				}
				live = append(live, fab.StartFlow(int64(1+rng.IntN(200))*MB, path...))
			}
			if msg := assertMatchesScratch(fab, eng.Now()); msg != "" {
				t.Logf("seed=%d op=%d t=%v: %s", seed, op, eng.Now(), msg)
				return false
			}
		}
		eng.Run()
		return fab.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
