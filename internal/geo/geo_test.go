package geo

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// testConfig is the shared small-world shape: 4 regions, short horizon,
// read recording on for the checkers.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.ClientsPerRegion = 24
	cfg.Horizon = 60 * time.Second
	cfg.HotNames = 8
	cfg.RecordReads = true
	return cfg
}

// TestWorldRuns is the basic smoke: the world drains, every population
// makes progress, replication reaches every secondary and lag is positive.
func TestWorldRuns(t *testing.T) {
	w := NewWorld(testConfig())
	w.Run()
	rep := w.Report()
	if rep.ReadsOK == 0 || rep.WritesOK == 0 {
		t.Fatalf("no traffic: %+v", rep)
	}
	if rep.Commits == 0 {
		t.Fatalf("no commits")
	}
	if got, want := rep.Applies, rep.Commits*int64(rep.Regions-1); got != want {
		t.Fatalf("fault-free replication incomplete: %d applies, want %d", got, want)
	}
	if rep.LagMeanSec <= 0 {
		t.Fatalf("replication lag not measured: %+v", rep)
	}
	if rep.TotalFlaps != 0 {
		t.Fatalf("healthy steady state flapped %d times", rep.TotalFlaps)
	}
}

// reportHash is the FNV-1a hash of a report's full %+v rendering: a golden
// pin on every field.
func reportHash(rep *Report) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *rep)
	return h.Sum64()
}

// TestWorldReportGolden pins the whole report of the small world with lag
// samples on. The value was captured when the world still ran on a
// one-domain sim.Domains group, so it also pins that the single-engine
// window loop delivers cross-region messages exactly as that group did.
func TestWorldReportGolden(t *testing.T) {
	cfg := testConfig()
	cfg.LagSamples = true
	w := NewWorld(cfg)
	w.Run()
	rep := w.Report()
	if got, want := reportHash(rep), uint64(0x099a3891a84e67c9); got != want {
		t.Fatalf("report hash %#016x, want %#016x:\n%+v", got, want, rep)
	}
}
