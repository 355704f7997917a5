package main

import (
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
)

// The domainbench artifact measures the domain-sharded kernel on the
// scale-cell suite: one scalebench rung split into 8 fixed client shards,
// shard s on domain s%D, so the same worlds run at every width — plus one
// windowed point exercising the bounded virtual-time coordinator. Its
// domains=1 row prices the coordinator's single-domain overhead, which
// -gate holds to 10% of the checked-in BENCH_domains.json.

// domainScaleClouds is the fixed shard-cloud count of the scale-cell
// suite. It does not vary with the domain ladder — the same 8 shard worlds
// run at every width (shard s on domain s%D), which is what makes the
// rungs' traces comparable in the first place.
const domainScaleClouds = 8

// runDomainScaleCell runs one scalebench-style rung of n clients split into
// domainScaleClouds self-contained shard clouds placed round-robin on a
// domains-wide group. Each shard's cloud seed and client stream root derive
// from the shard index alone (root.ForkDomain(s)), so no draw anywhere
// depends on the domain count — the summed tallies, total events, and final
// virtual time must match at every width, and that tuple is the trace hash.
func runDomainScaleCell(seed uint64, n, domains int, window time.Duration) rung {
	shards := domainScaleClouds
	per := n / shards
	g := sim.NewDomains(domains)
	if window > 0 {
		g.SetWindow(window)
	}
	base := simrand.New(seed).Fork("scalebench")
	clouds := make([]*azure.Cloud, shards)
	hs := make([]*scaleHarness, shards)
	clients := make([][]scaleClient, shards)
	for s := 0; s < shards; s++ {
		cloud, h := newScaleCloudOn(g.Domain(s%domains), seed+uint64(s)*7919)
		h.root = base.ForkDomain(s)
		clouds[s], hs[s] = cloud, h
		cs := make([]scaleClient, per)
		for i := range cs {
			cs[i].init(h, i)
		}
		clients[s] = cs
	}
	for s := range clients {
		for i := range clients[s] {
			clients[s][i].begin()
		}
	}
	start := time.Now()
	g.Run()
	wall := time.Since(start)

	var ok, failed, server uint64
	for s := 0; s < shards; s++ {
		ok += hs[s].ok
		failed += hs[s].failed
		server += clouds[s].Ops.Total()
	}
	events := g.EventsFired()
	var acc sim.DomainAccum
	acc.Add(g.Stats())
	return rung{
		hash:   traceHash(ok, failed, server, events, g.Now().Seconds()),
		acc:    &acc,
		wall:   wall,
		events: events,
		window: window,
	}
}

// domainScaleN is the scale cell's client count: 100k full, 10k quick.
func domainScaleN(quick bool) int {
	if quick {
		return 10_000
	}
	return 100_000
}

// domainLadder is the domain-count ladder: {1,2,4,8} full, {1,2} quick.
func domainLadder(quick bool) []int {
	if quick {
		return []int{1, 2}
	}
	return []int{1, 2, 4, 8}
}

func runDomainBench(seed uint64, quick bool, out string) int {
	b := newLadderBench("domainbench", "domains", seed, quick,
		"domain-sharded kernel ladder: the scale-cell suite splits one closed-loop "+
			"rung (100k clients; 10k quick) into 8 fixed shard clouds placed round-robin "+
			"on a group of domains ∈ {1,2,4,8} ({1,2} quick), with identical trace_hash "+
			"required at every rung; the window_sec row runs the same cell under the "+
			"bounded virtual-time coordinator. speedup_vs_one is against the domains=1 "+
			"wall and null when num_cpu is 1; utilization is busy/(domains×wall) from the "+
			"coordinator's accounting. The domains=1 row is the -gate baseline.")
	n := domainScaleN(quick)
	ladder := domainLadder(quick)
	b.ladder("scale-cell", ladder, func(d int) rung { return runDomainScaleCell(seed, n, d, 0) })
	b.ladder("scale-cell", ladder[len(ladder)-1:], func(d int) rung { return runDomainScaleCell(seed, n, d, time.Second) })
	return b.write(out)
}

// runDomainGate re-runs the scale cell at domains=1 against the checked-in
// BENCH_domains.json: the coordinator's single-domain overhead must stay
// within 10%, and the trace must not move.
func runDomainGate(baselinePath string) int {
	return ladderGate("domainbench", baselinePath, "scale-cell", func(seed uint64, quick bool) rung {
		return runDomainScaleCell(seed, domainScaleN(quick), 1, 0)
	})
}
