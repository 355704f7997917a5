package modis

import (
	"reflect"
	"testing"
	"time"

	"azureobs/internal/chaos"
	"azureobs/internal/core"
	"azureobs/internal/fabric"
	"azureobs/internal/oplog"
)

// shortConfig is a small, fast campaign shared by the chaos tests.
func shortConfig(seed uint64) Config {
	return Config{
		Seed:                seed,
		Days:                5,
		Workers:             30,
		MeanRequestGap:      100 * time.Minute,
		MeanTasksPerRequest: 120,
	}
}

// statsFingerprint captures every campaign observable the isolation and
// equivalence tests compare bit-for-bit.
func statsFingerprint(st *Stats) map[string]uint64 {
	fp := map[string]uint64{
		"execs":    st.TotalExecs(),
		"distinct": st.DistinctTasks,
		"requests": st.Requests,
		"retries":  st.Retries,
		"falsek":   st.FalseKills,
		"complete": st.CompletedRequests,
		"aborted":  st.CrashAborted,
		"repl":     st.ReplacementVMs,
		"sretries": st.StorageRetries,
	}
	for _, name := range st.Outcomes.Names() {
		fp["outcome/"+name] = st.Outcomes.Get(name)
	}
	for _, name := range st.TaskExecs.Names() {
		fp["type/"+name] = st.TaskExecs.Get(name)
	}
	for d, v := range st.DailyExecs {
		fp["day"] = fp["day"]*31 + uint64(d+1)*v
	}
	return fp
}

// A nil chaos config and a zero (disabled) one must produce bit-identical
// campaigns: the chaos streams are label-forked, so merely plumbing the
// config through draws nothing. This is the modis-level half of the trace
// isolation the core golden tests pin for the storage experiments.
func TestChaosDisabledTraceIsolation(t *testing.T) {
	base := NewCampaign(shortConfig(42)).Run()
	cfg := shortConfig(42)
	cfg.Chaos = &chaos.Config{} // present but disabled
	withOff := NewCampaign(cfg).Run()
	if !reflect.DeepEqual(statsFingerprint(base), statsFingerprint(withOff)) {
		t.Fatalf("disabled chaos config perturbed the campaign:\nbase=%v\nwith=%v",
			statsFingerprint(base), statsFingerprint(withOff))
	}
}

// The same chaos campaign must be bit-identical at scheduler widths 1, 2 and
// 4 — the chaosreport scenario cells are independent simulations, so sharding
// them cannot change any result (the modis extension of core's
// TestSchedulerEquivalence).
func TestChaosReportSchedulerEquivalence(t *testing.T) {
	fingerprint := func(r *ChaosReportResult) []map[string]uint64 {
		var out []map[string]uint64
		for _, sc := range r.Scenarios {
			fp := map[string]uint64{
				"execs":   sc.Executions,
				"aborted": sc.CrashAborted,
				"repl":    sc.ReplacementVMs,
				"viol":    sc.Violations,
			}
			if sc.Report != nil {
				for _, cl := range chaos.Classes {
					fp["inj/"+string(cl)] = sc.Report.Injected(cl)
					fp["rep/"+string(cl)] = sc.Report.Repaired(cl)
					fp["mttr/"+string(cl)] = uint64(sc.Report.MTTR(cl))
				}
				fp["killed"] = sc.Report.VMsKilled
				fp["lost"] = uint64(sc.Report.WorkLost)
				fp["recovered"] = uint64(sc.Report.WorkRecovered)
			}
			out = append(out, fp)
		}
		return out
	}
	run := func(workers int) *ChaosReportResult {
		p := core.Proto{Seed: 42, Workers: workers, Scale: core.QuickScale}
		return RunChaosReport(ChaosReportConfigFor(p))
	}
	serial := run(1)
	want := fingerprint(serial)
	wantAnchors := serial.Anchors()
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if !reflect.DeepEqual(fingerprint(got), want) {
			t.Fatalf("chaosreport at %d workers diverged:\n got %v\nwant %v",
				workers, fingerprint(got), want)
		}
		if !reflect.DeepEqual(got.Anchors(), wantAnchors) {
			t.Fatalf("chaosreport anchors at %d workers: %v, want %v",
				workers, got.Anchors(), wantAnchors)
		}
	}
}

// Regression for the crash/monitor double-count hazard: on a fleet with
// degradation effectively off, the timeout monitor never fires (the 4x
// threshold is far above any undilated execution), so a scripted crash
// schedule must produce CrashAborted > 0 while FalseKills and VM-timeout
// outcomes stay exactly zero — a crash-killed execution is re-enqueued, never
// booked as a monitor kill.
func TestCrashAbortNotCountedAsFalseKill(t *testing.T) {
	mkConfig := func() Config {
		cfg := shortConfig(11)
		// Push degradation episodes far past the horizon: every host stays
		// healthy, so any monitor kill would be a false kill by definition.
		cfg.Degradation = &fabric.DegradationConfig{
			MeanInterarrival: 1e6 * time.Hour,
			FracLo:           0.01, FracHi: 0.02,
			SlowLo: 4, SlowHi: 5,
			DurLo: time.Hour, DurHi: 2 * time.Hour,
		}
		return cfg
	}
	// Probe run to learn where the worker fleet lands (placement is
	// deterministic per seed, and the scripted campaign below uses the same
	// seed and fleet size).
	probe := NewCampaign(mkConfig())
	var script []chaos.ScriptEvent
	for i := 0; i < 12; i++ {
		script = append(script, chaos.ScriptEvent{
			At:     time.Duration(6+i*7) * time.Hour,
			Class:  chaos.ClassHostCrash,
			Host:   probe.fleet.vms[i].Host.ID,
			Repair: time.Hour,
		})
	}

	cfg := mkConfig()
	cfg.Chaos = &chaos.Config{Script: script}
	camp := NewCampaign(cfg)
	st := camp.Run()

	if got := st.Outcomes.Get(string(OutcomeVMTimeout)); got != 0 {
		t.Fatalf("VM timeouts on a healthy fleet: %d", got)
	}
	if st.FalseKills != 0 {
		t.Fatalf("FalseKills = %d; crash-aborted executions leaked into the monitor books", st.FalseKills)
	}
	if st.CrashAborted == 0 {
		t.Fatal("no crash-aborted executions; the scripted crashes missed every busy worker")
	}
	if st.ReplacementVMs == 0 {
		t.Fatal("no replacement VMs acquired after scripted crashes")
	}
	rep := camp.ChaosReport()
	if rep.Injected(chaos.ClassHostCrash) != uint64(len(script)) {
		t.Fatalf("crashes injected = %d, want %d", rep.Injected(chaos.ClassHostCrash), len(script))
	}
	if rep.WorkLost == 0 {
		t.Fatal("no work recorded lost despite crash-aborted executions")
	}
	if rep.Violations != 0 {
		t.Fatalf("invariant violations: %d", rep.Violations)
	}
}

// Regression for the stage-release hazard: the worker whose execution
// drains a stage enqueues the whole next stage, one queue op at a time. A
// host crash in the middle of that run must not strand the rest of the
// stage — its request would never complete. A probe run of a one-request
// campaign finds the instant the download stage drains; the scripted run
// crashes every worker host one second later, mid-release.
func TestCrashDuringStageRelease(t *testing.T) {
	mkConfig := func() Config {
		return Config{
			Seed:                32,
			Days:                3,
			Workers:             8,
			MeanRequestGap:      20 * 24 * time.Hour,
			MeanTasksPerRequest: 200,
			// Degradation far past the horizon keeps every execution short.
			Degradation: &fabric.DegradationConfig{
				MeanInterarrival: 1e5 * time.Hour,
				FracLo:           0.01, FracHi: 0.02,
				SlowLo: 4, SlowHi: 5,
				DurLo: time.Hour, DurHi: 2 * time.Hour,
			},
		}
	}
	probe := NewCampaign(mkConfig())
	var drained time.Duration
	reprojecting := false
	probe.Log.Subscribe(func(r oplog.Record) {
		switch r.Category {
		case Reprojection.String():
			reprojecting = true
		case SourceDownload.String():
			if !reprojecting {
				drained = r.Time
			}
		}
	})
	var script []chaos.ScriptEvent
	for _, h := range probe.Cloud().DC.Hosts() {
		if h.Residents() > 0 {
			script = append(script, chaos.ScriptEvent{
				At: drained, Class: chaos.ClassHostCrash, Host: h.ID, Repair: time.Hour,
			})
		}
	}
	pst := probe.Run()
	if pst.Requests != 1 || pst.CompletedRequests != 1 || drained == 0 {
		t.Fatalf("probe: %d requests, %d completed, download stage drained at %v; want one request completing after a download stage",
			pst.Requests, pst.CompletedRequests, drained)
	}
	for i := range script {
		script[i].At = drained + time.Second
	}

	cfg := mkConfig()
	cfg.Chaos = &chaos.Config{Script: script}
	camp := NewCampaign(cfg)
	camp.EnableInvariants(true)
	st := camp.Run()
	if st.ReplacementVMs == 0 {
		t.Fatal("no worker was replaced: the scripted crashes missed the fleet")
	}
	if st.CompletedRequests != 1 {
		t.Fatalf("request never completed: %d of %d tasks finished after a crash during the stage release",
			camp.finishes, st.DistinctTasks)
	}
}
