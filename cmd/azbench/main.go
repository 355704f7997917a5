// Command azbench reproduces the measurement artifacts of "Early
// observations on the performance of Windows Azure" (Hill et al., HPDC'10)
// against the simulated cloud: Fig. 1 (blob bandwidth), Fig. 2 (table ops),
// Fig. 3 (queue ops), Table 1 (VM lifecycle), Figs. 4-5 (inter-VM TCP), the
// Section 6.1 property-filter ablation, and the queue-depth invariance
// check. Experiments are selected by name from the core registry, so the
// -run values are exactly core.Names().
//
// Usage:
//
//	azbench -run all            # everything at paper scale
//	azbench -run all -workers 4 # shard whole experiments over 4 workers
//	azbench -run fig1 -quick    # one artifact at reduced scale
//	azbench -run fig2 -entity 65536
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"azureobs/internal/core"
	"azureobs/internal/core/sched"
	"azureobs/internal/fabric"
	"azureobs/internal/geo"
	"azureobs/internal/metrics"
	"azureobs/internal/report"
	"azureobs/internal/svgplot"

	// Experiments registered outside core (chaosreport) reach the registry
	// through the packages that define them.
	_ "azureobs/internal/modis"
	_ "azureobs/internal/wire"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the testable entry point: cmd smoke tests drive it in-process.
func run(args []string) int {
	fs := flag.NewFlagSet("azbench", flag.ExitOnError)
	var (
		runName = fs.String("run", "all", "artifact: all|"+strings.Join(core.Names(), "|"))
		seed    = fs.Uint64("seed", 42, "root random seed")
		quick   = fs.Bool("quick", false, "reduced scale for fast runs")
		workers = fs.Int("workers", 1, "scheduler width: independent experiment cells run on this many goroutines (1 = serial; results are bit-identical at any width)")
		entity  = fs.Int("entity", 4096, "fig2 entity size in bytes (1024|4096|16384|65536)")
		msg     = fs.Int("msg", 512, "fig3 message size in bytes (512|1024|4096|8192)")
		csv     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		svgDir  = fs.String("svg", "", "also write SVG figures into this directory")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf = fs.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	fs.Parse(args)
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	figures = *svgDir

	which := strings.ToLower(*runName)
	emit := func(t *report.Table) {
		if *csv {
			t.CSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
		fmt.Println()
	}

	proto := core.Proto{Seed: *seed, Workers: *workers}
	if *quick {
		proto.Scale = core.QuickScale
	}
	// The size flags map onto Proto.Size for the experiment they configure.
	sizeFor := func(name string) int {
		switch name {
		case "fig2":
			return *entity
		case "fig3":
			return *msg
		}
		return 0
	}

	if which == "all" {
		// The size sweeps re-run fig2/fig3 four times each; "all" keeps to
		// the per-figure artifacts, as it always has. With -workers the
		// whole experiments shard across the pool (each internally serial),
		// and render order stays the registry order regardless of which
		// finishes first.
		var names []string
		for _, n := range core.Names() {
			if n != "fig2sizes" && n != "fig3sizes" {
				names = append(names, n)
			}
		}
		pool := sched.New(*workers)
		results := sched.Map(pool, len(names), func(i int) core.Result {
			p := proto
			p.Workers = 1
			p.Size = sizeFor(names[i])
			e, _ := core.Lookup(names[i])
			return e.Run(p)
		})
		for i, n := range names {
			renderResult(n, results[i], emit)
		}
		return 0
	}

	name := which
	if name == "fig4" || name == "fig5" {
		name = "tcp"
	}
	e, ok := core.Lookup(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown artifact %q\n", *runName)
		fs.Usage()
		return 2
	}
	p := proto
	p.Size = sizeFor(name)
	renderResult(name, e.Run(p), emit)
	return 0
}

// figures is the SVG output directory ("" = off).
var figures string

// writeFigure renders a plot into the figures directory.
func writeFigure(name string, p *svgplot.Plot) {
	if figures == "" {
		return
	}
	f, err := os.Create(filepath.Join(figures, name))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	if err := p.Render(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	fmt.Printf("wrote %s\n", filepath.Join(figures, name))
}

func printAnchors(title string, anchors []core.Anchor) {
	if len(anchors) == 0 {
		return
	}
	fmt.Printf("%s — paper vs measured:\n", title)
	for _, a := range anchors {
		fmt.Printf("  %s\n", a)
	}
	fmt.Println()
}

// renderResult dispatches a registry result to its artifact renderer.
// Unknown result types still get their anchors printed, so a newly
// registered experiment is runnable by name before it grows a table.
func renderResult(name string, res core.Result, emit func(*report.Table)) {
	switch r := res.(type) {
	case *core.Fig1Result:
		renderFig1(r, emit)
	case *core.Fig2Result:
		renderFig2(r, emit)
	case *core.Fig3Result:
		renderFig3(r, emit)
	case *core.Table1Result:
		renderTable1(r, emit)
	case *core.TCPResult:
		renderTCP(r)
	case *core.PropFilterResult:
		renderPropFilter(r, emit)
	case *core.QueueDepthResult:
		renderQueueDepth(r, emit)
	case *core.ReplicationResult:
		renderReplication(r, emit)
	case *core.SQLCompareResult:
		renderSQLCompare(r, emit)
	case *core.StartupScalingResult:
		renderStartup(r, emit)
	case *core.Fig2SizeSweep:
		renderFig2Sizes(r, emit)
	case *core.Fig3SizeSweep:
		renderFig3Sizes(r, emit)
	case *core.Fig8GeoResult:
		renderFig8Geo(r, emit)
	default:
		printAnchors(name, res.Anchors())
	}
}

func renderFig1(r *core.Fig1Result, emit func(*report.Table)) {
	t := report.NewTable("Fig 1 — average per-client blob bandwidth vs concurrent clients",
		"clients", "down MB/s", "down agg MB/s", "up MB/s", "up agg MB/s")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.Clients),
			fmt.Sprintf("%.2f", p.DownMBps), fmt.Sprintf("%.1f", p.DownAggMBps),
			fmt.Sprintf("%.2f", p.UpMBps), fmt.Sprintf("%.1f", p.UpAggMBps))
	}
	emit(t)
	printAnchors("Fig 1", r.Anchors())

	xs := make([]float64, len(r.Points))
	down := make([]float64, len(r.Points))
	up := make([]float64, len(r.Points))
	for i, p := range r.Points {
		xs[i], down[i], up[i] = float64(p.Clients), p.DownMBps, p.UpMBps
	}
	plot := svgplot.New("Fig 1 — average per-client blob bandwidth", "concurrent clients", "MB/s")
	plot.Log2X = true
	plot.Add("download", xs, down)
	if up[0] > 0 {
		plot.Add("upload", xs, up)
	}
	writeFigure("fig1.svg", plot)
}

func renderFig2(r *core.Fig2Result, emit func(*report.Table)) {
	entity := r.EntitySize
	t := report.NewTable(
		fmt.Sprintf("Fig 2 — average per-client table ops/s vs concurrent clients (entity %d B)", entity),
		"clients", "insert", "query", "update", "delete", "insert-finishers")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.Clients),
			fmt.Sprintf("%.1f", p.InsertOps), fmt.Sprintf("%.1f", p.QueryOps),
			fmt.Sprintf("%.1f", p.UpdateOps), fmt.Sprintf("%.1f", p.DeleteOps),
			fmt.Sprintf("%d/%d", p.InsertSurvivors, p.Clients))
	}
	emit(t)
	printAnchors("Fig 2", r.Anchors())

	xs := make([]float64, len(r.Points))
	curves := map[string][]float64{"insert": nil, "query": nil, "update": nil, "delete": nil}
	for i, p := range r.Points {
		xs[i] = float64(p.Clients)
		curves["insert"] = append(curves["insert"], p.InsertOps)
		curves["query"] = append(curves["query"], p.QueryOps)
		curves["update"] = append(curves["update"], p.UpdateOps)
		curves["delete"] = append(curves["delete"], p.DeleteOps)
	}
	plot := svgplot.New(fmt.Sprintf("Fig 2 — per-client table ops/s (%d B entities)", entity),
		"concurrent clients", "ops/s")
	plot.Log2X = true
	for _, name := range []string{"insert", "query", "update", "delete"} {
		plot.Add(name, xs, curves[name])
	}
	writeFigure("fig2.svg", plot)
}

func renderFig3(r *core.Fig3Result, emit func(*report.Table)) {
	msg := r.MsgSize
	t := report.NewTable(
		fmt.Sprintf("Fig 3 — average per-client queue ops/s vs concurrent clients (message %d B)", msg),
		"clients", "add", "peek", "receive", "add agg", "peek agg", "recv agg")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.Clients),
			fmt.Sprintf("%.1f", p.AddOps), fmt.Sprintf("%.1f", p.PeekOps),
			fmt.Sprintf("%.1f", p.ReceiveOps),
			fmt.Sprintf("%.0f", p.AggAdd()), fmt.Sprintf("%.0f", p.AggPeek()),
			fmt.Sprintf("%.0f", p.AggReceive()))
	}
	emit(t)
	printAnchors("Fig 3", r.Anchors())

	xs := make([]float64, len(r.Points))
	add := make([]float64, len(r.Points))
	peek := make([]float64, len(r.Points))
	recv := make([]float64, len(r.Points))
	for i, p := range r.Points {
		xs[i], add[i], peek[i], recv[i] = float64(p.Clients), p.AddOps, p.PeekOps, p.ReceiveOps
	}
	plot := svgplot.New(fmt.Sprintf("Fig 3 — per-client queue ops/s (%d B messages)", msg),
		"concurrent clients", "ops/s")
	plot.Log2X = true
	plot.Add("add", xs, add)
	plot.Add("peek", xs, peek)
	plot.Add("receive", xs, recv)
	writeFigure("fig3.svg", plot)
}

func renderTable1(r *core.Table1Result, emit func(*report.Table)) {
	t := report.NewTable("Table 1 — worker/web role VM request time (seconds)",
		"role", "size", "stat", "create", "run", "add", "suspend", "delete")
	for _, role := range []fabric.Role{fabric.Worker, fabric.Web} {
		for _, size := range []fabric.Size{fabric.Small, fabric.Medium, fabric.Large, fabric.ExtraLarge} {
			cell := func(phase string, f func(*metrics.Summary) float64) string {
				s := r.Cell(role, size, phase)
				if s.N() == 0 {
					return "N/A"
				}
				return fmt.Sprintf("%.0f", f(s))
			}
			mean := func(s *metrics.Summary) float64 { return s.Mean() }
			std := func(s *metrics.Summary) float64 { return s.Std() }
			t.AddRow(role.String(), size.String(), "AVG",
				cell("Create", mean), cell("Run", mean), cell("Add", mean),
				cell("Suspend", mean), cell("Delete", mean))
			t.AddRow("", "", "STD",
				cell("Create", std), cell("Run", std), cell("Add", std),
				cell("Suspend", std), cell("Delete", std))
		}
	}
	emit(t)
	pct := r.Percentiles()
	fmt.Printf("derived: %d successful runs, %.1f%% startup failures\n",
		r.SuccessRuns, r.FailureRate()*100)
	fmt.Printf("worker small first instance: %.0f%% ≤ 9 min, %.0f%% ≤ 10 min\n",
		pct.WorkerWithin9Min*100, pct.WorkerWithin10Min*100)
	fmt.Printf("web small first instance:    %.0f%% ≤ 10 min, %.0f%% ≤ 11 min\n\n",
		pct.WebWithin10Min*100, pct.WebWithin11Min*100)
	printAnchors("Table 1", r.Anchors())
}

func renderTCP(r *core.TCPResult) {
	report.CDFPlot(os.Stdout, "Fig 4 — cumulative TCP latency between small VMs", "ms",
		r.LatencyMS, 60, 12)
	fmt.Println()
	report.CDFPlot(os.Stdout, "Fig 5 — cumulative TCP bandwidth, 2 GB transfers", "MB/s",
		r.BandwidthMBps, 60, 12)
	fmt.Println()
	printAnchors("Figs 4-5", r.Anchors())

	writeFigure("fig4.svg", cdfFigure("Fig 4 — cumulative TCP latency", "latency (ms)", r.LatencyMS))
	writeFigure("fig5.svg", cdfFigure("Fig 5 — cumulative TCP bandwidth (2 GB transfers)", "bandwidth (MB/s)", r.BandwidthMBps))
}

// cdfFigure builds a cumulative-probability curve from a sample.
func cdfFigure(title, xlabel string, s *metrics.Sample) *svgplot.Plot {
	pts := s.CDF(100)
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, pt := range pts {
		xs[i], ys[i] = pt.Value, pt.P
	}
	plot := svgplot.New(title, xlabel, "cumulative probability")
	plot.Add("measured CDF", xs, ys)
	return plot
}

func renderPropFilter(r *core.PropFilterResult, emit func(*report.Table)) {
	t := report.NewTable(
		fmt.Sprintf("Section 6.1 — property-filter queries on a %d-entity partition", r.Entities),
		"clients", "queries", "timeouts", "mean latency (s)")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.Clients), fmt.Sprint(p.Queries), fmt.Sprint(p.Timeouts),
			fmt.Sprintf("%.1f", p.MeanLatency))
	}
	emit(t)
	printAnchors("Property-filter ablation", r.Anchors())
}

func renderReplication(r *core.ReplicationResult, emit func(*report.Table)) {
	t := report.NewTable(
		fmt.Sprintf("Section 6.1 — blob replication ablation (%d concurrent readers)", r.Clients),
		"replicas", "readers/blob", "per-client MB/s", "aggregate MB/s", "speedup")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.Replicas), fmt.Sprint(p.PerBlobClients),
			fmt.Sprintf("%.2f", p.PerClientMBps), fmt.Sprintf("%.0f", p.AggregateMBps),
			fmt.Sprintf("%.2fx", p.SpeedupVsOne))
	}
	emit(t)
	printAnchors("Replication ablation", r.Anchors())
}

func renderFig2Sizes(sw *core.Fig2SizeSweep, emit func(*report.Table)) {
	t := report.NewTable("Section 3.2 — table insert ops/s across entity sizes",
		"clients", "1 kB", "4 kB", "16 kB", "64 kB")
	for i, pt := range sw.Results[0].Points {
		row := []string{fmt.Sprint(pt.Clients)}
		for _, r := range sw.Results {
			row = append(row, fmt.Sprintf("%.1f", r.Points[i].InsertOps))
		}
		t.AddRow(row...)
	}
	emit(t)
	printAnchors("Entity-size sweep", sw.Anchors())
}

func renderFig3Sizes(sw *core.Fig3SizeSweep, emit func(*report.Table)) {
	t := report.NewTable("Section 3.3 — queue add ops/s across message sizes",
		"clients", "512 B", "1 kB", "4 kB", "8 kB")
	for i, pt := range sw.Results[0].Points {
		row := []string{fmt.Sprint(pt.Clients)}
		for _, r := range sw.Results {
			row = append(row, fmt.Sprintf("%.1f", r.Points[i].AddOps))
		}
		t.AddRow(row...)
	}
	emit(t)
	printAnchors("Message-size sweep", sw.Anchors())
}

func renderStartup(r *core.StartupScalingResult, emit func(*report.Table)) {
	t := report.NewTable(
		"Section 4.1 extra — deployment readiness vs size (small workers, seconds)",
		"instances", "first ready avg", "all ready avg", "all ready std")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.Instances),
			fmt.Sprintf("%.0f", p.FirstReady.Mean()),
			fmt.Sprintf("%.0f", p.AllReady.Mean()),
			fmt.Sprintf("%.0f", p.AllReady.Std()))
	}
	emit(t)
	fmt.Printf("marginal startup cost: %.1f s per added instance (the 60-100 s serial readiness lag)\n\n",
		r.MarginalSecondsPerInstance())
	printAnchors("Startup scaling", r.Anchors())
}

func renderSQLCompare(r *core.SQLCompareResult, emit func(*report.Table)) {
	t := report.NewTable(
		"HPDC'10 extra — SQL Azure vs table storage, per-client ops/s (1 kB rows)",
		"clients", "sql insert", "sql select", "tbl insert", "tbl query", "sql throttled")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.Clients),
			fmt.Sprintf("%.1f", p.SQLInsertOps), fmt.Sprintf("%.1f", p.SQLSelectOps),
			fmt.Sprintf("%.1f", p.TableInsertOps), fmt.Sprintf("%.1f", p.TableQueryOps),
			fmt.Sprintf("%d/%d", p.ThrottledOpens, p.Clients))
	}
	emit(t)
	printAnchors("SQL comparison", r.Anchors())
}

func renderFig8Geo(r *core.Fig8GeoResult, emit func(*report.Table)) {
	t := report.NewTable(
		fmt.Sprintf("Fig 8 — cross-DC geo scenarios (%d regions)", r.Regions),
		"scenario", "reads ok", "writes ok", "remote reads", "lag p50 (s)", "lag p95 (s)", "stale %", "RTO (s)", "lost writes")
	row := func(name string, g *geo.Report) {
		t.AddRow(name,
			fmt.Sprint(g.ReadsOK), fmt.Sprint(g.WritesOK), fmt.Sprint(g.RemoteReads),
			fmt.Sprintf("%.3f", g.LagP50Sec), fmt.Sprintf("%.3f", g.LagP95Sec),
			fmt.Sprintf("%.2f", 100*g.StaleFrac),
			fmt.Sprintf("%.2f", g.RTOSec), fmt.Sprint(g.LostWrites))
	}
	row("lag+flash", r.Lag)
	row("read-your-writes", r.RYW)
	row("region-kill", r.Kill)
	emit(t)
	printAnchors("Fig 8 geo", r.Anchors())
}

func renderQueueDepth(r *core.QueueDepthResult, emit func(*report.Table)) {
	t := report.NewTable("Section 3.3 — queue depth invariance (per-client Receive ops/s @8 clients)",
		"depth", "ops/s")
	t.AddRow(fmt.Sprint(r.SmallDepth), fmt.Sprintf("%.1f", r.SmallRate))
	t.AddRow(fmt.Sprint(r.LargeDepth), fmt.Sprintf("%.1f", r.LargeRate))
	emit(t)
	printAnchors("Queue depth invariance", r.Anchors())
}
