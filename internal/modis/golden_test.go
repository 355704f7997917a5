package modis

import (
	"testing"

	"azureobs/internal/chaos"
	"azureobs/internal/storage/reqpath"
)

// TestCampaignGoldens pins Stats.Fingerprint and the fired-event count for
// the short campaign — fault-free, under a uniform storage-fault mix, under
// host crashes and under the combined chaos mix. These words pin the traces
// themselves, so a change to how the campaign is driven (processes, actors,
// the storage request path) must reproduce every draw and every event in
// the same order to keep them.
func TestCampaignGoldens(t *testing.T) {
	scenarios := chaosScenarios()
	chaosCfg := func(name string) *chaos.Config {
		for _, sc := range scenarios {
			if sc.name == name {
				return sc.cfg()
			}
		}
		t.Fatalf("no chaos scenario %q", name)
		return nil
	}
	cells := []struct {
		name   string
		cfg    func() Config
		want   uint64
		events uint64
	}{
		{"serial", func() Config { return shortConfig(42) }, 0x7e501fe38d86e8f8, 121348},
		{"serial/storage-faults", func() Config {
			cfg := shortConfig(42)
			cfg.StorageFaults = reqpath.FaultConfig{ConnFailProb: 0.05, ServerBusyProb: 0.02}
			return cfg
		}, 0xb5ae5164ed075ac7, 124454},
		{"serial/chaos-crash", func() Config {
			cfg := shortConfig(42)
			cfg.Chaos = chaosCfg("crash")
			return cfg
		}, 0xce3c8e02b41e2cea, 121179},
		{"serial/chaos-combined", func() Config {
			cfg := shortConfig(42)
			cfg.Chaos = chaosCfg("combined")
			return cfg
		}, 0x4c3b728da0b2da38, 107678},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			camp := NewCampaign(c.cfg())
			camp.EnableInvariants(true)
			st := camp.Run()
			if got := st.Fingerprint(); got != c.want {
				t.Errorf("fingerprint %#016x, want %#016x", got, c.want)
			}
			if got := camp.Cloud().Engine.EventsFired(); got != c.events {
				t.Errorf("%d events fired, want %d", got, c.events)
			}
			if c.cfg().Chaos != nil && st.CrashAborted == 0 {
				t.Errorf("no crash-aborted executions: the crash path was not exercised")
			}
		})
	}
}

// TestStaleRedeliveryFingerprints pins a campaign whose storage faults make
// about one queue delete in 130 fail for good, so about 120 task messages
// come back after their visibility window as stale redeliveries. The books
// match the fingerprint of the release that tracked queued tasks in a
// per-queue map.
func TestStaleRedeliveryFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("a faulted campaign")
	}
	cfg := shortConfig(42)
	cfg.Days = 8
	cfg.StorageFaults = reqpath.FaultConfig{ConnFailProb: 0.3}
	camp := NewCampaign(cfg)
	camp.EnableInvariants(true)
	st := camp.Run()
	if fp, want := st.Fingerprint(), uint64(0x1fcb9a9bd3d9e86e); fp != want {
		t.Errorf("fingerprint %#x, want %#x", fp, want)
	}
	if st.StorageErrors.Get("queue.Delete/ConnectionFailure") == 0 {
		t.Error("no queue delete failed for good; no stale redelivery was exercised")
	}
}
