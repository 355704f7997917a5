package main

import (
	"time"

	"azureobs/internal/core"
	"azureobs/internal/geo"
	"azureobs/internal/sim"
)

// The geobench artifact measures the multi-region world: the same geo cells
// executed at a ladder of sim.Domains widths (one domain per region is the
// natural partition), with the trace hash asserted identical at every rung.
// Two suites cover the two execution shapes:
//
//   - fig8geo-cell: the full three-scenario fig8geo experiment (lag, ryw,
//     kill) at validation scale, hashed over results and anchors;
//   - geo-pop: one larger single world with per-read recording off — the
//     population fast path — hashed over its report, event count and final
//     virtual time.
//
// On an n-core machine the ladder approaches min(n, regions).

// geoFig8Config is the fig8geo-cell suite config: validation scale (full)
// or the quick reduced scale.
func geoFig8Config(seed uint64, quick bool) core.Fig8GeoConfig {
	clients, horizon := 48, 120*time.Second
	if quick {
		clients, horizon = 16, 60*time.Second
	}
	return core.Fig8GeoConfig{
		Proto:            core.Proto{Seed: seed, Workers: 1},
		Regions:          4,
		ClientsPerRegion: clients,
		HotNames:         16,
		Horizon:          horizon,
	}
}

// runGeoFig8 executes the fig8geo-cell suite at one domain count.
func runGeoFig8(seed uint64, quick bool, domains int) rung {
	cfg := geoFig8Config(seed, quick)
	var acc sim.DomainAccum
	cfg.Domains = domains
	cfg.DomainStats = &acc
	start := time.Now()
	res := core.RunFig8Geo(cfg)
	wall := time.Since(start)
	// Hash the dereferenced reports: %+v renders nested pointer fields as
	// addresses, which would fold allocator state into the trace hash.
	hash := traceHash(res.Regions, *res.Lag, *res.RYW, *res.Kill, res.Anchors())
	return rung{hash: hash, acc: &acc, wall: wall}
}

// runGeoPop executes the geo-pop suite: one world, bigger populations, the
// per-read consistency log and lag samples off so the hash covers only the
// aggregate report.
func runGeoPop(seed uint64, quick bool, domains int) rung {
	cfg := geo.DefaultConfig()
	cfg.Seed = seed + 17
	cfg.Domains = domains
	cfg.ClientsPerRegion = 256
	cfg.Horizon = 120 * time.Second
	if quick {
		cfg.ClientsPerRegion = 64
		cfg.Horizon = 45 * time.Second
	}
	w := geo.NewWorld(cfg)
	start := time.Now()
	w.Run()
	wall := time.Since(start)
	events := w.EventsFired()
	var acc sim.DomainAccum
	acc.Add(w.Stats())
	return rung{hash: traceHash(w.Report(), events, w.Now().Seconds()), acc: &acc, wall: wall, events: events}
}

// geoLadder is the domain-count ladder: {1,2,4} full (four regions means
// four is the widest useful shard), {1,2} quick.
func geoLadder(quick bool) []int {
	if quick {
		return []int{1, 2}
	}
	return []int{1, 2, 4}
}

func runGeoBench(seed uint64, quick bool, out string) int {
	b := newLadderBench("geobench", "geo", seed, quick,
		"multi-region geo ladder: each suite's cell re-run at domains ∈ {1,2,4} "+
			"({1,2} quick) over a four-region world, with identical trace_hash required "+
			"at every rung. fig8geo-cell runs the full three-scenario experiment "+
			"(replication lag + flash crowd, read-your-writes, primary region kill) at "+
			"validation scale; geo-pop runs one larger world on the population fast "+
			"path with per-read recording off. speedup_vs_one is against the suite's "+
			"domains=1 wall and null when num_cpu is 1.")
	ladder := geoLadder(quick)
	b.ladder("fig8geo-cell", ladder, func(d int) rung { return runGeoFig8(seed, quick, d) })
	b.ladder("geo-pop", ladder, func(d int) rung { return runGeoPop(seed, quick, d) })
	return b.write(out)
}

// runGeoGate re-runs the fig8geo cell at domains=1 against the checked-in
// BENCH_geo.json: within 10% of its wall, and the same trace.
func runGeoGate(baselinePath string) int {
	return ladderGate("geobench", baselinePath, "fig8geo-cell", func(seed uint64, quick bool) rung {
		return runGeoFig8(seed, quick, 1)
	})
}
