package modis

import (
	"runtime"
	"testing"
	"time"
)

// TestCampaignGoroutineBaseline runs a fault-free and a chaos campaign and
// checks that each spawns no process and leaves no goroutine behind: every
// campaign activity is a flat actor, so a run that stops at its horizon
// parks nothing.
func TestCampaignGoroutineBaseline(t *testing.T) {
	cells := []struct {
		name string
		cfg  Config
	}{
		{"serial", shortConfig(42)},
		{"chaos", chaosCell(shortConfig(42))},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			camp := NewCampaign(c.cfg)
			camp.Run()
			if n := camp.Cloud().Engine.ProcsSpawned(); n != 0 {
				t.Errorf("spawned %d processes, want 0", n)
			}
			assertGoroutines(t, base)
		})
	}
}

// chaosCell adds the host-crash chaos process to cfg.
func chaosCell(cfg Config) Config {
	for _, sc := range chaosScenarios() {
		if sc.name == "crash" {
			cfg.Chaos = sc.cfg()
		}
	}
	return cfg
}

// assertGoroutines fails unless the goroutine count settles at or below
// base. Goroutines that are exiting get a moment to finish.
func assertGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after the run, baseline %d:\n%s", n, base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
