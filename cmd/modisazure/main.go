// Command modisazure runs the ModisAzure campaign simulation of Section 5:
// a Feb-Sep 2010-scale bag-of-tasks satellite-imagery pipeline on ~200
// simulated worker instances, reproducing Table 2 (task breakdown and
// failure taxonomy) and Fig. 7 (daily VM-timeout share).
//
// Usage:
//
//	modisazure                # full 242-day campaign (~3M task executions)
//	modisazure -days 21       # shorter campaign
//	modisazure -describe      # print the pipeline architecture (Fig. 6)
//	modisazure -ablate 2,3,4,6 -parallel 4
//	                          # kill-multiple ablation, campaigns sharded
//	                          # over 4 scheduler workers
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"azureobs/internal/billing"
	"azureobs/internal/chaos"
	"azureobs/internal/fabric"
	"azureobs/internal/modis"
	"azureobs/internal/report"
	"azureobs/internal/svgplot"
)

const architecture = `ModisAzure pipeline (paper Fig. 6)

  web portal ──▶ request table ──▶ service manager
                                       │ expands each request into tasks
                                       ▼
                               Azure queue (tasks)
                                       │
        ┌──────────────┬───────────────┼────────────────┐
        ▼              ▼               ▼                ▼
  source download  reprojection   aggregation      reduction
  (FTP → blob)     (merge tiles)  (group data)     (user MATLAB code)
        │              │               │                │
        └──────────────┴───────┬───────┴────────────────┘
                               ▼
                     blob storage (intermediate + final products)

  stage order per request: collection → reprojection → aggregation → reduction
  a task manager kills executions at 4x the task's mean time and re-queues them`

func main() {
	var (
		seed     = flag.Uint64("seed", 42, "root random seed")
		days     = flag.Int("days", 242, "campaign length in days (paper: Feb-Sep 2010)")
		workers  = flag.Int("workers", 200, "worker role instances")
		describe = flag.Bool("describe", false, "print the pipeline architecture and exit")
		csv      = flag.Bool("csv", false, "emit CSV tables")
		showlog  = flag.Int("showlog", 0, "print the last N structured log records")
		svgDir   = flag.String("svg", "", "also write fig7.svg into this directory")
		ablate   = flag.String("ablate", "", "run the kill-multiple ablation at these comma-separated multiples instead of one campaign")
		parallel = flag.Int("parallel", 1, "scheduler workers for the ablation's independent campaigns (-workers means worker-role instances)")
		chaosOn  = flag.Bool("chaos", false, "run the default whole-datacenter fault campaign (host crashes, degradations, rack partitions, storage outages) alongside the workload and report the failure taxonomy")
	)
	flag.Parse()

	if *describe {
		fmt.Println(architecture)
		return
	}

	cfg := modis.DefaultConfig()
	cfg.Seed = *seed
	cfg.Days = *days
	cfg.Workers = *workers
	if *chaosOn {
		ch := chaos.DefaultConfig()
		cfg.Chaos = &ch
	}

	if *ablate != "" {
		var multiples []float64
		for _, s := range strings.Split(*ablate, ",") {
			m, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || m <= 0 {
				fmt.Fprintf(os.Stderr, "modisazure: bad -ablate multiple %q\n", s)
				os.Exit(2)
			}
			multiples = append(multiples, m)
		}
		fmt.Printf("running kill-multiple ablation: %d days, %d workers, multiples %s, %d scheduler workers ...\n\n",
			cfg.Days, cfg.Workers, *ablate, *parallel)
		start := time.Now()
		pts := modis.RunKillAblation(cfg, multiples, *parallel)
		t := report.NewTable("Kill-multiple ablation (Section 5.2)",
			"multiple", "timeouts", "false kills", "wasted hours", "executions")
		for _, p := range pts {
			t.AddRow(fmt.Sprintf("%.1fx", p.KillMultiple), fmt.Sprint(p.Timeouts),
				fmt.Sprint(p.FalseKills), fmt.Sprintf("%.1f", p.WastedHours), fmt.Sprint(p.TotalExecs))
		}
		if *csv {
			t.CSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		fmt.Printf("\nablation: %d campaigns (wall %.1fs)\n", len(pts), time.Since(start).Seconds())
		return
	}
	fmt.Printf("running ModisAzure campaign: %d days, %d workers, seed %d ...\n\n",
		cfg.Days, cfg.Workers, cfg.Seed)
	start := time.Now()
	campaign := modis.NewCampaign(cfg)
	if *chaosOn {
		// Recording mode: violations are counted and reported with the
		// taxonomy instead of aborting the campaign mid-fault.
		campaign.EnableInvariants(false)
	}
	st := campaign.Run()
	elapsed := time.Since(start)

	emit := func(t *report.Table) {
		if *csv {
			t.CSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		fmt.Println()
	}

	total := float64(st.TotalExecs())
	t := report.NewTable("Table 2 — ModisAzure task breakdown", "classification", "executions", "% of total")
	for _, name := range st.TaskExecs.Names() {
		v := st.TaskExecs.Get(name)
		t.AddRow(name, fmt.Sprint(v), fmt.Sprintf("%.2f", float64(v)/total*100))
	}
	t.AddRow("Total task executions", fmt.Sprint(st.TotalExecs()), "100.00")
	emit(t)

	t2 := report.NewTable("Table 2 — selected types of task errors", "outcome", "executions", "% of total")
	for _, name := range st.Outcomes.Names() {
		v := st.Outcomes.Get(name)
		t2.AddRow(name, fmt.Sprint(v), fmt.Sprintf("%.2f", float64(v)/total*100))
	}
	emit(t2)

	report.SeriesPlot(os.Stdout, "Fig 7 — percent of task executions with VM timeout per day", "%",
		st.Fig7Series(), 100, 12)
	fmt.Println()

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fig7 := st.Fig7Series()
		xs := make([]float64, fig7.Len())
		for i := range xs {
			xs[i] = float64(i)
		}
		plot := svgplot.New("Fig 7 — daily share of executions with VM timeout", "campaign day", "% of executions")
		plot.Kind = svgplot.Bars
		plot.Add("daily timeout share", xs, fig7.Values)
		path := filepath.Join(*svgDir, "fig7.svg")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := plot.Render(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		f.Close()
		fmt.Printf("wrote %s\n\n", path)
	}

	if rep := campaign.ChaosReport(); rep != nil {
		fmt.Println("Chaos campaign — failure taxonomy (cf. Section 5):")
		rep.Render(os.Stdout)
		fmt.Printf("replacement VMs acquired: %d; crash-aborted executions re-enqueued: %d\n\n",
			st.ReplacementVMs, st.CrashAborted)
	}

	fmt.Println("paper vs measured:")
	for _, a := range st.Anchors() {
		fmt.Printf("  %s\n", a)
	}
	fmt.Printf("\ncampaign: %d requests, %d distinct tasks, %d executions, %d retries (wall %.1fs)\n",
		st.Requests, st.DistinctTasks, st.TotalExecs(), st.Retries, elapsed.Seconds())
	if st.CompletedRequests > 0 {
		fmt.Printf("requests completed: %d; turnaround median %.1f h, p90 %.1f h\n",
			st.CompletedRequests, st.TurnaroundHours.Median(), st.TurnaroundHours.Quantile(0.9))
	}

	// Approximate bill at the February-2010 commercial price sheet
	// (Section 5.1's economics: storing intermediates beats recompute
	// within a month's reuse).
	meter := billing.NewMeter(billing.Rates2010())
	meter.ChargeCompute(fabric.Small, time.Duration(cfg.Days)*24*time.Hour*time.Duration(cfg.Workers))
	meter.ChargeTransactions(st.TotalExecs() * 8) // queue+table+blob ops per execution
	// Intermediate products: reprojection output tiles (~20 MB each, the
	// scale of a reprojected MODIS region tile) resident for the campaign's
	// remainder, on average half its length.
	products := int64(st.TaskExecs.Get("Reprojection"))
	meter.ChargeStorage(products*20_000_000, time.Duration(cfg.Days)*12*time.Hour)
	fmt.Printf("estimated bill (2010 rates): %s\n", meter.Bill())

	if *showlog > 0 {
		recent := campaign.Log.Recent()
		if len(recent) > *showlog {
			recent = recent[len(recent)-*showlog:]
		}
		fmt.Printf("\nlast %d log records:\n", len(recent))
		for _, r := range recent {
			fmt.Println(" ", r)
		}
	}
}
