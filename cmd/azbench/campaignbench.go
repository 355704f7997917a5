package main

import (
	"fmt"
	"time"

	"azureobs/internal/modis"
	"azureobs/internal/sim"
)

// The campaignbench artifact measures the domain-sharded ModisAzure
// campaign: one quick campaign re-run at a ladder of sim.Domains widths,
// with the campaign fingerprint — every Table 2 counter, daily series and
// float tally, bit for bit — required identical at every rung. This is the
// coupled-workload counterpart of domainbench's scale cell: the campaign's
// shards talk through the shared task dispatch and the coordinator, so the
// speedup column here prices the boundary-mail design, not just GOMAXPROCS.
// On an n-core machine it approaches min(n, domains) scaled by the
// utilization column (the coordinator round barrier is the tax).

// campaignBenchConfig is the quick-campaign cell: big enough that every
// shard stays busy (and wall time dominates setup), small enough for CI.
func campaignBenchConfig(seed uint64, quick bool, domains int) modis.Config {
	cfg := modis.Config{
		Seed:                seed,
		Days:                21,
		Workers:             64,
		MeanRequestGap:      100 * time.Minute,
		MeanTasksPerRequest: 140,
		Domains:             domains,
	}
	if quick {
		cfg.Days, cfg.Workers = 7, 32
	}
	return cfg
}

// campaignLadder is the domain-width ladder: {1,2,4,8} full (eight shards
// means eight is the widest useful width), {1,2} quick.
func campaignLadder(quick bool) []int {
	if quick {
		return []int{1, 2}
	}
	return []int{1, 2, 4, 8}
}

// runCampaignCell executes the quick campaign at one domain width; its
// events are task executions.
func runCampaignCell(seed uint64, quick bool, domains int) rung {
	var acc sim.DomainAccum
	cfg := campaignBenchConfig(seed, quick, domains)
	cfg.DomainStats = &acc
	camp := modis.NewCampaign(cfg)
	start := time.Now()
	st := camp.Run()
	wall := time.Since(start)
	return rung{hash: fmt.Sprintf("%016x", st.Fingerprint()), acc: &acc, wall: wall, events: st.TotalExecs()}
}

func runCampaignBench(seed uint64, quick bool, out string) int {
	b := newLadderBench("campaignbench", "campaign", seed, quick,
		"domain-sharded ModisAzure campaign ladder: the same quick campaign "+
			"(21 days, 64 workers; 7 days, 32 workers quick) re-run at domains ∈ "+
			"{1,2,4,8} ({1,2} quick) over eight workload shards, with the identical "+
			"campaign fingerprint (trace_hash) required at every rung. events_fired "+
			"is task executions. speedup_vs_one is against the suite's domains=1 "+
			"wall and null when num_cpu is 1; utilization is busy/(domains*wall), the "+
			"round-barrier tax on the coupled workload. Profile one rung with "+
			"-cpuprofile cpu.out: samples carry a per-domain pprof label.")
	b.ladder("campaign", campaignLadder(quick), func(d int) rung { return runCampaignCell(seed, quick, d) })
	return b.write(out)
}

// runCampaignGate re-runs the campaign at domains=1 against the checked-in
// BENCH_campaign.json: within 10% of its wall, and the same fingerprint.
func runCampaignGate(baselinePath string) int {
	return ladderGate("campaignbench", baselinePath, "campaign", func(seed uint64, quick bool) rung {
		return runCampaignCell(seed, quick, 1)
	})
}
