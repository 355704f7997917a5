package main

import (
	"testing"

	"azureobs/internal/sim"
)

// Smoke tests: drive the binary's run() in-process at quick scale. They
// assert exit codes, not output — the experiment internals are tested in
// their own packages; what's covered here is the flag plumbing, registry
// lookup and render dispatch that only exist in this command.
func TestRunSingleExperimentQuick(t *testing.T) {
	sim.SetDefaultInvariants(true)
	for _, name := range []string{"fig3", "queuedepth"} {
		if code := run([]string{"-run", name, "-quick"}); code != 0 {
			t.Fatalf("azbench -run %s -quick exited %d", name, code)
		}
	}
}

func TestRunChaosReportQuick(t *testing.T) {
	sim.SetDefaultInvariants(true)
	// chaosreport reaches the registry through the modis blank import; its
	// renderer is the default anchors-only path.
	if code := run([]string{"-run", "chaosreport", "-quick", "-workers", "4"}); code != 0 {
		t.Fatalf("azbench -run chaosreport -quick exited %d", code)
	}
}

func TestRunFig8GeoQuick(t *testing.T) {
	sim.SetDefaultInvariants(true)
	// fig8geo exercises the geo world render path through the registry.
	if code := run([]string{"-run", "fig8geo", "-quick"}); code != 0 {
		t.Fatalf("azbench -run fig8geo -quick exited %d", code)
	}
}

func TestRunUnknownArtifact(t *testing.T) {
	if code := run([]string{"-run", "nope"}); code != 2 {
		t.Fatalf("azbench -run nope exited %d, want 2", code)
	}
}
