package modis

import (
	"time"

	"azureobs/internal/chaos"
	"azureobs/internal/core"
	"azureobs/internal/core/sched"
)

// ChaosReportConfig scales the chaos-campaign experiment: the §5 failure
// study re-run as an ablation. Each scenario is one ModisAzure campaign under
// a different fault mix — no chaos, host crashes only, rack partitions only,
// storage blackouts only, and everything at once — so the anchors can both
// count the injected taxonomy and test the paper's survival claim: the retry
// and timeout-monitor machinery keeps throughput near the fault-free baseline.
type ChaosReportConfig struct {
	core.Proto
	Days            int
	CampaignWorkers int // worker-role instances per campaign (not Proto.Workers)
}

// ChaosReportConfigFor expands a Proto at the requested scale.
func ChaosReportConfigFor(p core.Proto) ChaosReportConfig {
	cfg := ChaosReportConfig{Proto: core.Defaults().Apply(p)}
	switch p.Scale {
	case core.QuickScale:
		cfg.Days, cfg.CampaignWorkers = 7, 30
	case core.ValidateScale:
		cfg.Days, cfg.CampaignWorkers = 14, 40
	default: // PaperScale
		cfg.Days, cfg.CampaignWorkers = 30, 120
	}
	return cfg
}

// chaosScenarios returns the ablation cells. The fault processes are
// accelerated (MTBFs in the tens of hours rather than the thousands a real
// fabric exhibits) so a weeks-long campaign sees dozens of incidents; repair
// windows keep the paper's §5 scale. Every scenario shares the experiment
// seed: with chaos streams label-forked, the baseline workload is
// bit-identical across cells, which is what makes the throughput ratio a
// controlled comparison.
func chaosScenarios() []struct {
	name string
	cfg  func() *chaos.Config
} {
	crash := chaos.Process{MeanInterarrival: 18 * time.Hour,
		RepairLo: 15 * time.Minute, RepairHi: 2 * time.Hour}
	degrade := chaos.Process{MeanInterarrival: 36 * time.Hour,
		RepairLo: 2 * time.Hour, RepairHi: 12 * time.Hour}
	partition := chaos.Process{MeanInterarrival: 36 * time.Hour,
		RepairLo: 5 * time.Minute, RepairHi: 45 * time.Minute}
	blackout := chaos.Process{MeanInterarrival: 48 * time.Hour,
		RepairLo: 2 * time.Minute, RepairHi: 20 * time.Minute}
	brownout := chaos.Process{MeanInterarrival: 24 * time.Hour,
		RepairLo: 10 * time.Minute, RepairHi: 90 * time.Minute}
	return []struct {
		name string
		cfg  func() *chaos.Config
	}{
		{"baseline", func() *chaos.Config { return nil }},
		{"crash", func() *chaos.Config { return &chaos.Config{HostCrash: crash} }},
		{"partition", func() *chaos.Config { return &chaos.Config{RackPartition: partition} }},
		{"blackout", func() *chaos.Config { return &chaos.Config{StorageBlackout: blackout} }},
		{"combined", func() *chaos.Config {
			return &chaos.Config{HostCrash: crash, HostDegrade: degrade,
				RackPartition: partition, StorageBlackout: blackout, StorageBrownout: brownout}
		}},
	}
}

// ChaosScenarioResult is one ablation cell's outcome.
type ChaosScenarioResult struct {
	Scenario       string
	Executions     uint64
	CrashAborted   uint64
	ReplacementVMs uint64
	Violations     uint64
	Report         *chaos.Report // nil for the baseline
}

// ChaosReportResult is the ablation dataset.
type ChaosReportResult struct {
	Days      int
	Scenarios []ChaosScenarioResult

	// expectedCrashes is the crash scenario's nominal incident count
	// (horizon / MTBF), the anchor target for the injection process.
	expectedCrashes float64
	// crashRepairMean is the nominal mean of the crash repair window.
	crashRepairMean time.Duration
}

// RunChaosReport executes the ablation, sharding scenario cells over
// cfg.Workers scheduler workers. Each cell enables the simulation invariant
// harness in recording mode, so the experiment's headline anchor — zero
// invariant violations across every fault mix — is checked on every run.
func RunChaosReport(cfg ChaosReportConfig) *ChaosReportResult {
	if cfg.Days == 0 {
		cfg.Days = 14
	}
	if cfg.CampaignWorkers == 0 {
		cfg.CampaignWorkers = 40
	}
	scenarios := chaosScenarios()
	res := &ChaosReportResult{Days: cfg.Days}
	res.expectedCrashes = float64(cfg.Days) * 24 /
		scenarios[1].cfg().HostCrash.MeanInterarrival.Hours()
	res.crashRepairMean = (scenarios[1].cfg().HostCrash.RepairLo +
		scenarios[1].cfg().HostCrash.RepairHi) / 2
	pool := sched.New(cfg.Workers)
	res.Scenarios = sched.Map(pool, len(scenarios), func(i int) ChaosScenarioResult {
		sc := scenarios[i]
		camp := NewCampaign(Config{
			Seed:                cfg.Seed,
			Days:                cfg.Days,
			Workers:             cfg.CampaignWorkers,
			MeanRequestGap:      100 * time.Minute,
			MeanTasksPerRequest: 140,
			Chaos:               sc.cfg(),
		})
		// Recording mode: a violation must not abort the campaign mid-fault —
		// the whole point is counting what survives. (If a test binary turned
		// fail-fast checking on for every engine, that stricter mode wins.)
		camp.EnableInvariants(false)
		st := camp.Run()
		out := ChaosScenarioResult{
			Scenario:       sc.name,
			Executions:     st.TotalExecs(),
			CrashAborted:   st.CrashAborted,
			ReplacementVMs: st.ReplacementVMs,
			Violations:     camp.InvariantViolations(),
			Report:         camp.ChaosReport(),
		}
		return out
	})
	return res
}

// scenario returns a cell by name (nil if absent).
func (r *ChaosReportResult) scenario(name string) *ChaosScenarioResult {
	for i := range r.Scenarios {
		if r.Scenarios[i].Scenario == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// Anchors reports the ablation's claims: the invariant harness stays silent
// under every fault mix, the injection processes hit their nominal rates, the
// crash repair delay matches its configured window, and — the paper's §5
// survival story — a campaign under the full fault mix retains most of the
// fault-free baseline's throughput.
func (r *ChaosReportResult) Anchors() []core.Anchor {
	var out []core.Anchor
	var violations uint64
	for _, sc := range r.Scenarios {
		violations += sc.Violations
	}
	out = append(out, core.Anchor{
		Name: "invariant violations (all scenarios)", Unit: "count",
		Paper: 0, Measured: float64(violations)})
	if crash := r.scenario("crash"); crash != nil && crash.Report != nil {
		out = append(out, core.Anchor{
			Name: "host crashes injected", Unit: "count",
			Paper:    r.expectedCrashes,
			Measured: float64(crash.Report.Injected(chaos.ClassHostCrash))})
		out = append(out, core.Anchor{
			Name: "host crash mean time to repair", Unit: "min",
			Paper:    r.crashRepairMean.Minutes(),
			Measured: crash.Report.MTTR(chaos.ClassHostCrash).Minutes()})
	}
	base, comb := r.scenario("baseline"), r.scenario("combined")
	if base != nil && comb != nil && base.Executions > 0 {
		out = append(out, core.Anchor{
			Name: "throughput under full chaos vs baseline", Unit: "x",
			Paper:    1,
			Measured: float64(comb.Executions) / float64(base.Executions)})
	}
	return out
}

func init() {
	core.Register(chaosReportExperiment{})
}

// chaosReportExperiment adapts the ablation to the registry. It lives here —
// not in core's own init table — because core cannot import modis; the
// experiment appears in the registry of any binary that links this package
// (azvalidate and modisazure already do, azbench via a blank import).
type chaosReportExperiment struct{}

func (chaosReportExperiment) Name() string { return "chaosreport" }
func (chaosReportExperiment) Run(p core.Proto) core.Result {
	return RunChaosReport(ChaosReportConfigFor(p))
}
