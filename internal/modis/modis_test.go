package modis

import (
	"math"
	"runtime"
	"testing"
	"time"

	"azureobs/internal/fabric"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/reqpath"
)

// smallCampaign returns a ~1% scale campaign (a few weeks, fewer workers)
// that still exercises every mechanism.
func smallCampaign(seed uint64) Config {
	return Config{
		Seed:                seed,
		Days:                21,
		Workers:             60,
		MeanRequestGap:      100 * time.Minute,
		MeanTasksPerRequest: 140,
	}
}

// sampleOutcome draws a non-timeout outcome class for one execution.
func sampleOutcome(ty TaskType, rng *simrand.RNG) Outcome {
	if i := drawOutcome(ty, rng); i < len(outcomeTables[ty]) {
		return outcomeTables[ty][i].o
	}
	return OutcomeSuccess
}

func TestOutcomeTablesSumToOne(t *testing.T) {
	for ty, table := range outcomeTables {
		var sum float64
		for _, e := range table {
			if e.p < 0 {
				t.Fatalf("%v: negative probability %v", ty, e.p)
			}
			sum += e.p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("%v outcome table sums to %v", ty, sum)
		}
	}
}

func TestOutcomeProperties(t *testing.T) {
	if !OutcomeSuccess.Completes() || !OutcomeBlobExists.Completes() || !OutcomeNullLog.Completes() {
		t.Fatal("completing outcomes misclassified")
	}
	if OutcomeUnknownFailure.Completes() || OutcomeUserCode.Completes() {
		t.Fatal("terminal failures must not complete")
	}
	if !OutcomeVMTimeout.Retryable() || !OutcomeDownloadFailed.Retryable() {
		t.Fatal("transient outcomes must be retryable")
	}
	if OutcomeUnknownFailure.Retryable() || OutcomeBlobExists.Retryable() {
		t.Fatal("terminal outcomes must not be retryable")
	}
}

func TestSampleOutcomeDistribution(t *testing.T) {
	rng := simrand.New(1)
	n := 200000
	counts := map[Outcome]int{}
	for i := 0; i < n; i++ {
		counts[sampleOutcome(Reprojection, rng)]++
	}
	frac := func(o Outcome) float64 { return float64(counts[o]) / float64(n) }
	if math.Abs(frac(OutcomeBlobExists)-0.1072) > 0.004 {
		t.Fatalf("blob-exists frac = %.4f", frac(OutcomeBlobExists))
	}
	if math.Abs(frac(OutcomeDownloadFailed)-0.0735) > 0.004 {
		t.Fatalf("download-failed frac = %.4f", frac(OutcomeDownloadFailed))
	}
	if math.Abs(frac(OutcomeSuccess)-0.6943) > 0.006 {
		t.Fatalf("success frac = %.4f", frac(OutcomeSuccess))
	}
	if counts[OutcomeNullLog] != 0 {
		t.Fatal("null-log sampled for a non-download task")
	}
	for i := 0; i < 1000; i++ {
		if o := sampleOutcome(SourceDownload, rng); o != OutcomeNullLog {
			t.Fatalf("download outcome = %v, want null-log always", o)
		}
	}
}

func TestCampaignRunsAndMatchesShape(t *testing.T) {
	st := NewCampaign(smallCampaign(7)).Run()
	if st.TotalExecs() < 10000 {
		t.Fatalf("too few executions: %d", st.TotalExecs())
	}
	if st.Requests < 50 {
		t.Fatalf("too few requests: %d", st.Requests)
	}
	total := float64(st.TotalExecs())
	share := func(name string) float64 { return float64(st.TaskExecs.Get(name)) / total * 100 }
	// Table 2 task mix: 4.57 / 0.29 / 55.79 / 39.36 percent.
	if v := share("Reprojection"); math.Abs(v-55.79) > 6 {
		t.Fatalf("reprojection share = %.1f%%, want ~55.8%%", v)
	}
	if v := share("Reduction"); math.Abs(v-39.36) > 6 {
		t.Fatalf("reduction share = %.1f%%, want ~39.4%%", v)
	}
	if v := share("Source download"); math.Abs(v-4.57) > 2 {
		t.Fatalf("download share = %.1f%%, want ~4.6%%", v)
	}
	// Success ~65.5%.
	if v := st.SuccessShare() * 100; math.Abs(v-65.5) > 5 {
		t.Fatalf("success share = %.1f%%, want ~65.5%%", v)
	}
	// Null-log count equals download executions exactly (the Table 2
	// coincidence the model encodes).
	if st.Outcomes.Get(string(OutcomeNullLog)) != st.TaskExecs.Get("Source download") {
		t.Fatal("null-log count != download executions")
	}
}

// TestCampaignExecutionAllocs pins the allocation-free execution path: a
// task execution books its outcome, logs its record and hands its task over
// the queue without formatting or boxing, so what remains per execution is
// the queue message and a share of its request's task slab.
func TestCampaignExecutionAllocs(t *testing.T) {
	c := NewCampaign(smallCampaign(3))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := c.Run()
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / float64(st.TotalExecs())
	t.Logf("%.3f allocations per execution over %d executions", per, st.TotalExecs())
	if per > 1.5 {
		t.Fatalf("%.2f allocations per task execution, want ≤ 1.5", per)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	cfg := smallCampaign(3)
	cfg.Days = 7
	a := NewCampaign(cfg).Run()
	b := NewCampaign(cfg).Run()
	if a.TotalExecs() != b.TotalExecs() || a.Retries != b.Retries {
		t.Fatalf("nondeterministic campaign: %d/%d vs %d/%d",
			a.TotalExecs(), a.Retries, b.TotalExecs(), b.Retries)
	}
	for _, name := range a.Outcomes.Names() {
		if a.Outcomes.Get(name) != b.Outcomes.Get(name) {
			t.Fatalf("outcome %q differs", name)
		}
	}
}

func TestTimeoutsEmergeFromDegradation(t *testing.T) {
	// Forced degradation: frequent heavy episodes must produce VM timeouts;
	// with degradation disabled (impossible episodes) there must be none.
	heavy := smallCampaign(11)
	heavy.Degradation = &fabric.DegradationConfig{
		MeanInterarrival: 40 * time.Hour,
		FracLo:           0.3, FracHi: 0.5,
		SlowLo: 5, SlowHi: 6.5,
		DurLo: 6 * time.Hour, DurHi: 24 * time.Hour,
	}
	st := NewCampaign(heavy).Run()
	if st.Outcomes.Get(string(OutcomeVMTimeout)) == 0 {
		t.Fatal("no VM timeouts under heavy degradation")
	}
	if st.Fig7Series().Max() <= 0 {
		t.Fatal("Fig 7 series flat under heavy degradation")
	}

	calm := smallCampaign(11)
	calm.Degradation = &fabric.DegradationConfig{
		MeanInterarrival: 1e6 * time.Hour, // effectively never
		FracLo:           0.01, FracHi: 0.02,
		SlowLo: 4, SlowHi: 5,
		DurLo: time.Hour, DurHi: 2 * time.Hour,
	}
	st2 := NewCampaign(calm).Run()
	if st2.Outcomes.Get(string(OutcomeVMTimeout)) != 0 {
		t.Fatalf("VM timeouts without degradation: %d", st2.Outcomes.Get(string(OutcomeVMTimeout)))
	}
}

func TestRequestTurnaround(t *testing.T) {
	st := NewCampaign(smallCampaign(37)).Run()
	if st.CompletedRequests == 0 {
		t.Fatal("no requests completed")
	}
	if st.CompletedRequests > st.Requests {
		t.Fatalf("completed %d > submitted %d", st.CompletedRequests, st.Requests)
	}
	if int(st.CompletedRequests) != st.TurnaroundHours.N() {
		t.Fatalf("turnaround samples %d != completions %d",
			st.TurnaroundHours.N(), st.CompletedRequests)
	}
	// A request of ~140 reprojections on 60 workers takes hours, not
	// seconds and not weeks.
	med := st.TurnaroundHours.Median()
	if med < 0.2 || med > 100 {
		t.Fatalf("median turnaround = %.2f h, implausible", med)
	}
}

func TestRetriesBounded(t *testing.T) {
	st := NewCampaign(smallCampaign(13)).Run()
	if st.Retries == 0 {
		t.Fatal("no retries observed")
	}
	// Retry inflation: executions / distinct should be modest (< 1.3).
	infl := float64(st.TotalExecs()) / float64(st.DistinctTasks)
	if infl > 1.3 {
		t.Fatalf("retry inflation = %.2f, too high", infl)
	}
}

func TestFig7SeriesShape(t *testing.T) {
	cfg := smallCampaign(17)
	st := NewCampaign(cfg).Run()
	ts := st.Fig7Series()
	if ts.Len() != cfg.Days+1 {
		t.Fatalf("series length = %d, want %d", ts.Len(), cfg.Days+1)
	}
	for _, v := range ts.Values {
		if v < 0 || v > 100 {
			t.Fatalf("daily percentage out of range: %v", v)
		}
	}
}

func TestAnchorsProduced(t *testing.T) {
	st := NewCampaign(smallCampaign(19)).Run()
	anchors := st.Anchors()
	if len(anchors) < 10 {
		t.Fatalf("anchors = %d, want ≥ 10", len(anchors))
	}
	for _, a := range anchors {
		if a.Name == "task share: Reprojection" && a.RelErr() > 0.15 {
			t.Fatalf("reprojection share off: %v", a)
		}
	}
}

// TestLogDerivedViewMatchesCounters checks the Section 6.3 pipeline: the
// Table 2 / Fig 7 views derived from the structured log must agree exactly
// with the campaign's direct counters.
func TestLogDerivedViewMatchesCounters(t *testing.T) {
	c := NewCampaign(smallCampaign(29))
	st := c.Run()
	if c.Analyzer.Total() != st.TotalExecs() {
		t.Fatalf("log records %d != executions %d", c.Analyzer.Total(), st.TotalExecs())
	}
	for _, name := range st.Outcomes.Names() {
		if c.Analyzer.ByEvent(name) != st.Outcomes.Get(name) {
			t.Fatalf("log-derived %q = %d, counter = %d",
				name, c.Analyzer.ByEvent(name), st.Outcomes.Get(name))
		}
	}
	for _, ty := range []TaskType{SourceDownload, Aggregation, Reprojection, Reduction} {
		if c.Analyzer.ByCategory(ty.String()) != st.TaskExecs.Get(ty.String()) {
			t.Fatalf("log-derived category %v mismatch", ty)
		}
	}
	// Fig 7 from the log equals Fig 7 from the counters, day by day.
	fig7 := st.Fig7Series()
	for d := 0; d < fig7.Len(); d++ {
		if got, want := c.Analyzer.DailyTrackedShare(d), fig7.Values[d]; got != want {
			t.Fatalf("day %d: log %.4f vs counters %.4f", d, got, want)
		}
	}
	// The diagnostic ring keeps the most recent records.
	if len(c.Log.Recent()) != 256 {
		t.Fatalf("ring = %d records, want 256", len(c.Log.Recent()))
	}
}

func TestStageOrdering(t *testing.T) {
	order := stageOrder()
	if order[0] != SourceDownload || order[1] != Reprojection ||
		order[2] != Aggregation || order[3] != Reduction {
		t.Fatalf("pipeline order wrong: %v", order)
	}
	for i, ty := range order {
		if stageIndex(ty) != i {
			t.Fatalf("stageIndex(%v) = %d, want %d", ty, stageIndex(ty), i)
		}
	}
}

// TestKillAblation exercises the Section 5.2 what-if: tighter kill bounds
// must waste less compute per kill but start killing healthy stragglers;
// looser bounds the reverse.
func TestKillAblation(t *testing.T) {
	base := smallCampaign(31)
	base.Days = 14
	base.Degradation = &fabric.DegradationConfig{
		MeanInterarrival: 60 * time.Hour,
		FracLo:           0.2, FracHi: 0.4,
		SlowLo: 4.5, SlowHi: 6.5,
		DurLo: 6 * time.Hour, DurHi: 18 * time.Hour,
	}
	pts := RunKillAblation(base, []float64{2, 4, 8}, 2)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	tight, paper, loose := pts[0], pts[1], pts[2]
	// Tighter bounds kill more executions overall (they catch stragglers).
	if tight.Timeouts <= paper.Timeouts {
		t.Fatalf("2x kills (%d) not more than 4x kills (%d)", tight.Timeouts, paper.Timeouts)
	}
	// Tight bounds false-kill healthy work; the paper's 4x (with its
	// detection factor) essentially never does.
	if tight.FalseKills == 0 {
		t.Fatal("2x bound produced no false kills")
	}
	if paper.FalseKills > tight.FalseKills {
		t.Fatalf("4x false kills (%d) exceed 2x (%d)", paper.FalseKills, tight.FalseKills)
	}
	// Wasted compute per kill grows with the bound.
	perKill := func(p KillAblationPoint) float64 {
		if p.Timeouts == 0 {
			return 0
		}
		return p.WastedHours / float64(p.Timeouts)
	}
	if !(perKill(tight) < perKill(paper) && (loose.Timeouts == 0 || perKill(paper) < perKill(loose))) {
		t.Fatalf("waste per kill not increasing with bound: %.3f %.3f %.3f",
			perKill(tight), perKill(paper), perKill(loose))
	}
}

func TestPaperTable2Consistency(t *testing.T) {
	tasks, outcomes := paperTable2()
	var taskTotal uint64
	for _, v := range tasks {
		taskTotal += v
	}
	if taskTotal != 3054430 {
		t.Fatalf("task total = %d, want 3054430", taskTotal)
	}
	if outcomes[OutcomeNullLog] != tasks[SourceDownload] {
		t.Fatal("Table 2 coincidence broken: null-log != download count")
	}
	if outcomes[OutcomeSuccess] != 2000656 {
		t.Fatalf("success = %d", outcomes[OutcomeSuccess])
	}
}

// TestStorageFaultCampaign: one StorageFaults line injects the same
// transient mix into every storage service the campaign touches; the retry
// layer absorbs nearly all of it (Section 5.2's "robust retry mechanisms"),
// so the campaign still completes with its usual shape instead of crashing.
func TestStorageFaultCampaign(t *testing.T) {
	cfg := smallCampaign(11)
	cfg.Days = 7
	clean := NewCampaign(cfg).Run()
	if clean.StorageRetries != 0 || clean.StorageErrors.Total() != 0 {
		t.Fatalf("fault-free campaign shows storage trouble: retries=%d errs=%d",
			clean.StorageRetries, clean.StorageErrors.Total())
	}

	cfg.StorageFaults = reqpath.FaultConfig{ConnFailProb: 0.05, ServerBusyProb: 0.02}
	st := NewCampaign(cfg).Run()
	if st.StorageRetries == 0 {
		t.Fatal("fault campaign recorded no storage retries")
	}
	// With p≈0.07 per attempt and 4 attempts, terminal failures are ~p^4 ≈
	// 2e-5 of ops — rare but the campaign must survive them when they land.
	if st.Requests == 0 || st.TotalExecs() < 1000 {
		t.Fatalf("fault campaign collapsed: requests=%d execs=%d", st.Requests, st.TotalExecs())
	}
	// Terminal storage failures shed work; they must stay a sliver of the
	// retry volume.
	if st.StorageErrors.Total() > st.StorageRetries/10 {
		t.Fatalf("too many terminal storage errors: %d (retries %d)",
			st.StorageErrors.Total(), st.StorageRetries)
	}
}
