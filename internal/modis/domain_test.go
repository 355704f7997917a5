package modis

import (
	"testing"
	"time"

	"azureobs/internal/chaos"
	"azureobs/internal/core/sched"
	"azureobs/internal/storage/reqpath"
)

// shardedShortConfig is shortConfig at a given domain width, with chaos
// optionally enabled (an accelerated crash process so a 5-day campaign sees
// several host crashes — the cross-domain re-enqueue path).
func shardedShortConfig(seed uint64, domains int, withChaos bool) Config {
	cfg := shortConfig(seed)
	cfg.Domains = domains
	if withChaos {
		cfg.Chaos = &chaos.Config{HostCrash: chaos.Process{
			MeanInterarrival: 12 * time.Hour,
			RepairLo:         15 * time.Minute, RepairHi: 2 * time.Hour,
		}}
	}
	return cfg
}

// TestCampaignDomainEquivalence is the tentpole pin: the sharded campaign
// is bit-identical at every domain width, whether or not its cells are
// themselves sharded over scheduler workers, with chaos on and off. Each
// cell runs with the invariant harness fail-fast, so the task- and
// note-conservation books are also closed at every width.
func TestCampaignDomainEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-campaign equivalence matrix")
	}
	widths := []int{1, 2, 4}
	for _, withChaos := range []bool{false, true} {
		var want uint64
		var wantMap map[string]uint64
		for _, schedWorkers := range []int{1, 4} {
			pool := sched.New(schedWorkers)
			type cell struct {
				fp      uint64
				fpMap   map[string]uint64
				aborted uint64
				viol    uint64
			}
			cells := sched.Map(pool, len(widths), func(i int) cell {
				camp := NewCampaign(shardedShortConfig(42, widths[i], withChaos))
				camp.EnableInvariants(true)
				st := camp.Run()
				return cell{st.Fingerprint(), statsFingerprint(st), st.CrashAborted, camp.InvariantViolations()}
			})
			for i, c := range cells {
				if want == 0 {
					want, wantMap = c.fp, c.fpMap
				}
				if c.fp != want {
					t.Errorf("chaos=%v sched=%d domains=%d: fingerprint %#x != reference %#x\ncell=%v\nref=%v",
						withChaos, schedWorkers, widths[i], c.fp, want, c.fpMap, wantMap)
				}
				if c.viol != 0 {
					t.Errorf("chaos=%v sched=%d domains=%d: %d invariant violations",
						withChaos, schedWorkers, widths[i], c.viol)
				}
				if withChaos && c.aborted == 0 {
					t.Errorf("chaos=%v sched=%d domains=%d: no crash-aborted executions — the cross-domain re-enqueue path was not exercised",
						withChaos, schedWorkers, widths[i])
				}
			}
		}
	}
}

// TestStaleRedeliveryFingerprints pins campaigns whose storage faults make
// about one queue delete in 130 fail for good, so about 120 task messages
// come back after their visibility window as stale redeliveries. Serial and
// sharded, at every width, the books match the fingerprints of the
// release that tracked queued tasks in per-queue maps; in a sharded run the
// shards judge staleness concurrently, which the race detector checks.
func TestStaleRedeliveryFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("four faulted campaigns")
	}
	for _, tc := range []struct {
		domains int
		want    uint64
	}{{0, 0x1fcb9a9bd3d9e86e}, {1, 0xf95c00e9a6abe957}, {2, 0xf95c00e9a6abe957}, {4, 0xf95c00e9a6abe957}} {
		cfg := shortConfig(42)
		cfg.Days = 8
		cfg.Domains = tc.domains
		cfg.StorageFaults = reqpath.FaultConfig{ConnFailProb: 0.3}
		camp := NewCampaign(cfg)
		camp.EnableInvariants(true)
		st := camp.Run()
		if fp := st.Fingerprint(); fp != tc.want {
			t.Errorf("domains=%d: fingerprint %#x, want %#x", tc.domains, fp, tc.want)
		}
		if st.StorageErrors.Get("queue.Delete/ConnectionFailure") == 0 {
			t.Errorf("domains=%d: no queue delete failed for good; no stale redelivery was exercised", tc.domains)
		}
	}
}

// A sharded campaign must produce a plausible Table 2: every stage executes,
// most executions succeed, and requests complete.
func TestShardedCampaignShape(t *testing.T) {
	camp := NewCampaign(shardedShortConfig(7, 4, false))
	camp.EnableInvariants(true)
	st := camp.Run()
	if st.TotalExecs() == 0 {
		t.Fatal("sharded campaign executed no tasks")
	}
	for _, ty := range []TaskType{SourceDownload, Reprojection, Aggregation, Reduction} {
		if st.TaskExecs.Get(ty.String()) == 0 {
			t.Errorf("no %s executions", ty)
		}
	}
	if st.SuccessShare() < 0.55 || st.SuccessShare() > 0.8 {
		t.Errorf("success share %.3f outside the Table 2 band (~0.66)", st.SuccessShare())
	}
	if st.CompletedRequests == 0 {
		t.Error("no requests completed")
	}
	if camp.EffectiveDomains() != 4 {
		t.Errorf("EffectiveDomains = %d, want 4", camp.EffectiveDomains())
	}
	if ds := camp.DomainStats(); ds.Rounds == 0 || ds.Domains != 4 {
		t.Errorf("DomainStats = %+v, want 4 domains with rounds > 0", ds)
	}
	if n := len(camp.RecentRecords()); n == 0 {
		t.Error("RecentRecords empty for a sharded campaign")
	}
}

// Requesting more domains than shards clamps to the shard count, and the
// clamp is surfaced (no silent caps).
func TestShardedDomainClamp(t *testing.T) {
	cfg := shardedShortConfig(42, 16, false)
	camp := NewCampaign(cfg)
	if got := camp.RequestedDomains(); got != 16 {
		t.Errorf("RequestedDomains = %d, want 16", got)
	}
	if got := camp.EffectiveDomains(); got != defaultShards {
		t.Errorf("EffectiveDomains = %d, want %d (clamped to shard count)", got, defaultShards)
	}
}
