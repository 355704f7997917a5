package geo

import (
	"testing"
	"time"
)

// killConfig scripts the marquee chaos scenario: the primary region dies
// whole at 30s and is repaired at 45s, under eventual reads so the killed
// population fails over.
func killConfig() Config {
	cfg := testConfig()
	cfg.Horizon = 75 * time.Second
	cfg.KillRegion = 0
	cfg.KillAt = 30 * time.Second
	cfg.RepairAt = 45 * time.Second
	return cfg
}

// TestRegionKillRTO_RPO asserts the failover quantities under
// sim.Invariants (enabled for the whole package in TestMain): RTO is the
// first successful read the killed population gets served elsewhere, and
// RPO is the exposure window of acknowledged-but-unreplicated writes.
func TestRegionKillRTO_RPO(t *testing.T) {
	cfg := killConfig()
	w := NewWorld(cfg)
	w.Run()
	rep := w.Report()

	if rep.DeadVMs < 0 || rep.KilledFailed == 0 {
		t.Fatalf("kill did not bite: %+v", rep)
	}
	if rep.RTOSec <= 0 {
		t.Fatalf("killed population never failed over: %+v", rep)
	}
	// Detection needs at most FailTimeout of silence plus one backoff
	// cycle; anything beyond that is a traffic-manager regression.
	maxRTO := (cfg.FailTimeout + 4*time.Second).Seconds()
	if rep.RTOSec > maxRTO {
		t.Fatalf("RTO %.2fs exceeds detection bound %.2fs", rep.RTOSec, maxRTO)
	}
	// RPO is bounded by the replication lag at the kill instant; with a
	// sub-second fault-free lag, losing more than 2s of writes means the
	// pump stalled long before the kill.
	if rep.RPOSec < 0 || rep.RPOSec > 2 {
		t.Fatalf("RPO %.3fs out of the lag-explainable band", rep.RPOSec)
	}
	if rep.LostWrites > 0 && rep.RPOSec == 0 {
		t.Fatalf("lost %d writes with zero RPO window", rep.LostWrites)
	}
	// Durability catch-up: after repair the pumps replay their backlog, so
	// the log is fully replicated by drain even though writes were exposed
	// at the kill instant.
	if got, want := rep.Applies, rep.Commits*int64(rep.Regions-1); got != want {
		t.Fatalf("backlog not drained after repair: %d applies, want %d", got, want)
	}
	// Reads that succeeded during the chaos are still exactly explainable.
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestRegionKillNoRoutingFlap is the FalseKills-style regression: one kill
// plus one repair must cost the killed region's router exactly two target
// transitions (home→failover at detection, failover→home after the
// repromote hold) and must not perturb any other region's routing at all.
// A detector misconfiguration — FailTimeout under the heartbeat period,
// hold-down too short for the repair settle — shows up here as extra
// flaps.
func TestRegionKillNoRoutingFlap(t *testing.T) {
	cfg := killConfig()
	w := NewWorld(cfg)
	w.Run()
	rep := w.Report()
	if rep.KilledFlaps != 2 {
		t.Fatalf("killed region's router flapped %d times, want exactly 2", rep.KilledFlaps)
	}
	if rest := rep.TotalFlaps - rep.KilledFlaps; rest != 0 {
		t.Fatalf("healthy regions flapped %d times during the kill", rest)
	}
}

// TestRegionKillSecondary kills a non-primary region: its population fails
// over for reads, writes elsewhere are unaffected, and the replication
// stream buffered during the outage applies at repair.
func TestRegionKillSecondary(t *testing.T) {
	cfg := killConfig()
	cfg.KillRegion = 2
	w := NewWorld(cfg)
	w.Run()
	rep := w.Report()
	if rep.RTOSec <= 0 {
		t.Fatalf("killed secondary's population never failed over: %+v", rep)
	}
	if rep.LostWrites != 0 {
		t.Fatalf("killing a secondary lost %d acknowledged writes", rep.LostWrites)
	}
	if got, want := rep.Applies, rep.Commits*int64(rep.Regions-1); got != want {
		t.Fatalf("outage-buffered stream not applied at repair: %d applies, want %d", got, want)
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestRegionKillReportGolden pins the chaos scenario's whole report: the
// kill, detection, failover and repair land exactly where they did when the
// world ran on a one-domain sim.Domains group.
func TestRegionKillReportGolden(t *testing.T) {
	w := NewWorld(killConfig())
	w.Run()
	rep := w.Report()
	if got, want := reportHash(rep), uint64(0x2d2e23aaad454a13); got != want {
		t.Fatalf("report hash %#016x, want %#016x:\n%+v", got, want, rep)
	}
}
