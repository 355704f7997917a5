// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a wall-clock budget, checks the
// workload's outputs, and prints its metrics as one JSON object on the last
// line of standard output:
//
//	perfbench --workload crowd --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object holds the end-to-end metrics; with --trace 1 the
// workload runs again with per-layer instrumentation and the object holds
// the per-layer metrics. WORKLOADS.md describes each workload, the layers it
// loads and bypasses, and how each metric is measured.
//
// The benchmark drives the system only through public entry points
// (modis.NewCampaign, azure.Cloud and its flat APIs, wire.New over
// sim.NewRealTime), so it keeps working while the layers beneath change.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale multiplies every workload's size; below 1 it shrinks the
	// workloads for the self-test.
	scale float64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&opt.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&opt.seconds, "seconds", 10, "wall-clock seconds of measured work")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	fs.Float64Var(&opt.scale, "scale", 1, "workload size multiplier")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(opt.workload)
	if !ok || opt.seconds <= 0 || opt.scale <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --scale > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	opt.trace = trace == 1

	res, err := execute(w, opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
	}
	if res == nil {
		return 1
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workload is one benchmark input set.
type workload struct {
	name string
	// window is the number of completed ops in one window of a round (see
	// meter).
	window int
	// perRequest marks a workload that times each op (see meter).
	perRequest bool
	// build sets up one round: the cloud, fleet, seeded store, clients and
	// listener. Everything it does is set-up time.
	build func(cfg roundConfig, tr *tracer) (round, error)
}

// roundConfig parameterises one round of a workload. Every round of a
// workload does the same, fixed amount of work.
type roundConfig struct {
	seed  uint64
	scale float64
}

// round is one set-up instance of a workload.
type round interface {
	// run executes the measured work, reporting completed ops to m.
	run(m *meter) error
	// verify checks the round's outputs and summarises it; it is not timed.
	verify() (outcome, error)
	// close releases the round's listeners and goroutines and waits for
	// them to end.
	close()
}

// outcome is what a round reports after verification.
type outcome struct {
	ops, failed uint64
	// hash is the round's trace hash, identical for every round of one seed
	// at any GOMAXPROCS; empty for the wire workload, whose engine runs in
	// real time.
	hash string
	// layers holds the workload's per-layer metrics (traced rounds only).
	layers map[string]float64
}

var workloads = []workload{campaignWorkload, crowdWorkload, xferWorkload, wireWorkload}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

const (
	// measuredProcs is the GOMAXPROCS of the measured rounds. The simulation
	// kernel is single-threaded: at GOMAXPROCS=2 the campaign burned 3.4 s of
	// CPU for 3.05 s of wall time, spinning idle Ps in the scheduler between
	// goroutine handoffs. The wire workload's one connection hands each
	// request from client to server to engine and back, so one P serves it
	// too, without cross-thread wake-ups.
	measuredProcs = 1
	// setup_s is the median of at least minSetups set-ups. Workloads whose
	// set-up is cheap are set up again, up to maxSetups times, until the
	// set-ups add up to setupBudget, so that the median is not a handful of
	// sub-millisecond timer readings. The extra set-ups are spread over the
	// run, a few before each measured round, so that no single phase of the
	// host's speed decides the median.
	minSetups   = 9
	maxSetups   = 101
	setupBudget = 250 * time.Millisecond
	// maxRounds caps the measured rounds of one run, which only rounds far
	// shorter than the budget reach (the self-test's tiny workloads).
	maxRounds = 64
)

// execute runs one invocation: an untimed warm-up round at GOMAXPROCS=ncpu,
// then measured rounds at measuredProcs until the budget is spent. A traced invocation spends the first half of the budget on plain
// rounds and the second on traced ones, and compares the two.
func execute(w workload, opt options, stdout io.Writer) (*result, error) {
	ncpu := runtime.NumCPU()
	budget := time.Duration(opt.seconds * float64(time.Second))
	cfg := roundConfig{seed: opt.seed, scale: opt.scale}
	fmt.Fprintf(stdout, "perfbench: workload %s seed %d seconds %g trace %v scale %g\n",
		w.name, opt.seed, opt.seconds, opt.trace, opt.scale)
	fmt.Fprintf(stdout, "perfbench: env num_cpu=%d gomaxprocs=%d (warm-up %d) gogc=%s go=%s\n",
		ncpu, measuredProcs, ncpu, gogc(), runtime.Version())

	runtime.GOMAXPROCS(ncpu)
	defer runtime.GOMAXPROCS(ncpu)
	warm, err := measure(w, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	report(stdout, "warm-up", warm)

	runtime.GOMAXPROCS(measuredProcs)
	var tr *tracer
	plainBudget := budget
	if opt.trace {
		tr = newTracer()
		plainBudget = budget / 2
	}
	extra := setupsPerRound(warm, budget)
	plain, err := rounds(w, cfg, nil, plainBudget, extra, warm.hash, stdout)
	if err != nil {
		return failedResult(warm, plain), err
	}
	all := plain
	var traced []roundStats
	if opt.trace {
		traced, err = rounds(w, cfg, tr, budget-plainBudget, extra, warm.hash, stdout)
		all = append(all, traced...)
		if err != nil {
			return failedResult(warm, all), err
		}
	}
	setups := setupTimes(all)
	// Runs with fewer rounds than the warm-up predicted top up here.
	for len(setups) < minSetups {
		d, err := setupOnly(w, cfg)
		if err != nil {
			return failedResult(warm, all), err
		}
		setups = append(setups, d.Seconds())
	}
	if warm.hash != "" {
		fmt.Fprintf(stdout, "perfbench: trace hash %s identical across %d rounds at GOMAXPROCS %d and %d\n",
			warm.hash, len(all)+1, ncpu, measuredProcs)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, rs := range all {
		res.Attempted += rs.ops
		res.Failed += rs.failed
	}
	if opt.trace {
		tracedMetrics(res.Metrics, plain, traced)
	} else {
		endToEndMetrics(res.Metrics, plain, setups)
		kind := fmt.Sprintf("host ms per op over windows of %d ops", w.window)
		if w.perRequest {
			kind = "client-observed request latency"
		}
		fmt.Fprintf(stdout, "perfbench: p50_ms/p99_ms: median over %d rounds of the round's %s, %d samples a round\n",
			len(plain), kind, len(plain[0].lat))
	}
	fmt.Fprintf(stdout, "perfbench: %d rounds, %d set-ups, %d ops, %d failed\n",
		len(all), len(setups), res.Attempted, res.Failed)
	return res, nil
}

// failedResult is the output of an invocation whose checks failed.
func failedResult(warm roundStats, done []roundStats) *result {
	res := &result{Metrics: map[string]metric{}, Attempted: warm.ops, Failed: warm.failed}
	for _, rs := range done {
		res.Attempted += rs.ops
		res.Failed += rs.failed
	}
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	return res
}

// setupsPerRound is the number of extra set-ups to make before each
// measured round, estimated from the warm-up's set-up and wall time, so that
// the run's set-ups reach setupBudget within minSetups and maxSetups.
func setupsPerRound(warm roundStats, budget time.Duration) int {
	rounds := max(1, min(maxRounds, int(budget/max(warm.wall, time.Millisecond))))
	want := int(math.Ceil(setupBudget.Seconds() / max(warm.setup.Seconds(), 1e-6)))
	want = min(maxSetups, max(minSetups, want))
	return max(0, (want-rounds+rounds-1)/rounds)
}

// rounds runs measured rounds until their measured wall time reaches budget
// or there are maxRounds of them, checking each round's trace hash against
// want. Before each round it times extra set-ups of their own.
func rounds(w workload, cfg roundConfig, tr *tracer, budget time.Duration, extra int, want string, stdout io.Writer) ([]roundStats, error) {
	var out []roundStats
	var elapsed time.Duration
	for len(out) == 0 || (elapsed < budget && len(out) < maxRounds) {
		var setups []time.Duration
		for i := 0; i < extra; i++ {
			d, err := setupOnly(w, cfg)
			if err != nil {
				return out, err
			}
			setups = append(setups, d)
		}
		rs, err := measure(w, cfg, tr)
		rs.extraSetups = setups
		if err != nil {
			return out, err
		}
		label := "round"
		if tr != nil {
			label = "traced round"
		}
		report(stdout, label, rs)
		if rs.hash != want {
			return append(out, rs), fmt.Errorf("trace hash %s differs from the warm-up's %s", rs.hash, want)
		}
		out = append(out, rs)
		elapsed += rs.wall
	}
	return out, nil
}

func report(stdout io.Writer, label string, rs roundStats) {
	fmt.Fprintf(stdout, "perfbench: %s: setup %.4fs wall %.3fs ops %d failed %d %.0f ops/s cpu %.3fs host %.3f live %.1fMB hash %s\n",
		label, rs.setup.Seconds(), rs.wall.Seconds(), rs.ops, rs.failed,
		float64(rs.ops)/rs.wall.Seconds(), rs.cpu.Seconds(), rs.slowdown, float64(rs.liveBytes)/1e6, rs.hash)
	if rs.profile.total > 0 {
		fmt.Fprintf(stdout, "perfbench:   %.2fs CPU sampled, top packages by self time:%s\n", rs.profile.total.Seconds(), rs.profile.top(8))
	}
}

// roundStats is one measured round.
type roundStats struct {
	outcome
	// wall and cpu are the measured section's, without the reference
	// samples.
	setup, wall, cpu time.Duration
	// slowdown is the host's over the measured section: the round's median
	// reference sample over refNominal. setupSlowdown is the host's just
	// before the set-up.
	slowdown, setupSlowdown float64
	counters                counters // runtime counters over the measured section
	// liveBytes is the live heap the round adds: measured after its run,
	// with the round reachable, less the live heap before its set-up.
	liveBytes uint64
	lat       []float64 // ms, see meter
	profile   cpuShares // traced rounds only
	// goroutinesPeak is the most goroutines the round ran beyond those
	// alive before its set-up.
	goroutinesPeak int
	// extraSetups are the set-ups timed on their own before the round,
	// divided by the host's slowdown.
	extraSetups []time.Duration
}

// measure sets up and runs one round. The heap is collected before the
// set-up and before the measured section, so no round pays for garbage an
// earlier one left.
func measure(w workload, cfg roundConfig, tr *tracer) (roundStats, error) {
	var rs roundStats
	runtime.GC()
	baseLive := liveHeapBytes()
	baseGoroutines := runtime.NumGoroutine()
	rs.setupSlowdown = hostSlowdown()
	t0 := time.Now()
	r, err := w.build(cfg, tr)
	rs.setup = time.Since(t0)
	if err != nil {
		return rs, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()

	runtime.GC()
	m := newMeter(w.window, w.perRequest, tr)
	before := readCounters()
	if tr != nil {
		if err := tr.startProfile(); err != nil {
			return rs, err
		}
	}
	m.start()
	err = r.run(m)
	rs.wall = m.stop()
	var profErr error
	if tr != nil {
		rs.profile, profErr = tr.stopProfile()
	}
	after := readCounters()
	if err != nil {
		return rs, fmt.Errorf("run: %w", err)
	}
	if profErr != nil {
		return rs, profErr
	}
	rs.counters = after.sub(before)
	// The reference samples keep one CPU busy for their wall time.
	rs.cpu = rs.counters.cpu - m.refWall
	rs.lat = m.lat
	rs.slowdown = median(m.ref)
	rs.goroutinesPeak = max(0, m.goroutinesPeak-baseGoroutines)

	out, err := r.verify()
	rs.outcome = out
	if err != nil {
		return rs, fmt.Errorf("check: %w", err)
	}
	if out.ops == 0 {
		return rs, errors.New("check: the round completed no ops")
	}
	// The live heap is read with the round still reachable: it is the
	// workload's state, not the garbage it left.
	runtime.GC()
	if live := liveHeapBytes(); live > baseLive {
		rs.liveBytes = live - baseLive
	}
	runtime.KeepAlive(r)
	return rs, nil
}

// setupOnly times one extra set-up of a round, divided by the host's
// slowdown just before it, and tears it down.
func setupOnly(w workload, cfg roundConfig) (time.Duration, error) {
	runtime.GC()
	hs := hostSlowdown()
	t0 := time.Now()
	r, err := w.build(cfg, nil)
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	r.close()
	return time.Duration(float64(d) / hs), nil
}

func setupTimes(rs []roundStats) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.setup.Seconds()/r.setupSlowdown)
		for _, d := range r.extraSetups {
			out = append(out, d.Seconds())
		}
	}
	return out
}

// endToEndMetrics fills the --trace 0 metrics from the measured rounds:
// the median over rounds of each round's own figure, so that a burst of
// contention from the host's other tenants moves one round, not the result.
// Times are divided by the round's host slowdown; allocations and memory,
// which the host does not move, are as counted.
func endToEndMetrics(m map[string]metric, rs []roundStats, setups []float64) {
	var cpu, allocs, live, p50, p99 []float64
	for _, r := range rs {
		ops := float64(r.ops)
		cpu = append(cpu, float64(r.cpu.Nanoseconds())/1e3/ops/r.slowdown)
		allocs = append(allocs, float64(r.counters.allocObjects)/ops)
		live = append(live, float64(r.liveBytes)/1e6)
		lat := append([]float64(nil), r.lat...)
		sort.Float64s(lat)
		p50 = append(p50, quantile(lat, 0.50)/r.slowdown)
		p99 = append(p99, quantile(lat, 0.99)/r.slowdown)
	}
	m["setup_s"] = metric{median(setups), "s"}
	m["ops_per_s"] = metric{median(rates(rs)), "1/s"}
	m["cpu_us_per_op"] = metric{median(cpu), "us"}
	m["allocs_per_op"] = metric{median(allocs), "count"}
	m["live_mem_mb"] = metric{median(live), "MB"}
	m["p50_ms"] = metric{median(p50), "ms"}
	m["p99_ms"] = metric{median(p99), "ms"}
}

// rates are the rounds' ops per second at the reference speed.
func rates(rs []roundStats) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, float64(r.ops)/r.wall.Seconds()*r.slowdown)
	}
	return out
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}
