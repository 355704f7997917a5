package modis

import (
	"runtime"
	"testing"
	"time"

	"azureobs/internal/sim"
)

// TestCampaignGoroutineBaseline runs a serial, a sharded and a chaos
// campaign and checks that each leaves no goroutine behind: every campaign
// activity is a flat actor, so a run that stops at its horizon parks
// nothing.
func TestCampaignGoroutineBaseline(t *testing.T) {
	cells := []struct {
		name string
		cfg  Config
	}{
		{"serial", shortConfig(42)},
		{"sharded", shardedShortConfig(42, 2, false)},
		{"chaos", chaosCell(shortConfig(42))},
		{"sharded/chaos", shardedShortConfig(42, 2, true)},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			camp := NewCampaign(c.cfg)
			camp.Run()
			engines := []*sim.Engine{camp.Cloud().Engine}
			if camp.group != nil {
				engines = engines[:0]
				for i := 0; i < camp.group.N(); i++ {
					engines = append(engines, camp.group.Domain(i))
				}
			}
			for i, e := range engines {
				if n := e.ProcsSpawned(); n != 0 {
					t.Errorf("engine %d spawned %d processes, want 0", i, n)
				}
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
// base. Goroutines that are exiting (a domain round's workers after the
// barrier) get a moment to finish.
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
