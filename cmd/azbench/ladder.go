package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"azureobs/internal/sim"
)

// The domain-ladder benches (domainbench, geobench) share one
// shape: a cell re-run at a ladder of sim.Domains widths, its trace hash
// required identical at every rung, so the run that measures the speedup
// also checks the determinism contract. On a single-CPU host GOMAXPROCS
// serializes the member goroutines and the ladder only certifies
// determinism; its speedup columns are null there.

// ladderPoint is one (suite, domains) measurement.
type ladderPoint struct {
	Suite       string  `json:"suite"`
	Domains     int     `json:"domains"`
	WindowSec   float64 `json:"window_sec,omitempty"`
	WallMS      float64 `json:"wall_ms"`
	BusyMS      float64 `json:"busy_ms,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
	Rounds      int     `json:"rounds,omitempty"`
	Groups      int     `json:"groups,omitempty"`
	// Speedup and Efficiency are against the suite's domains=1 wall, and
	// null when num_cpu is 1: one CPU runs the domains one after another.
	Speedup    *float64 `json:"speedup_vs_one"`
	Efficiency *float64 `json:"efficiency"`
	TraceHash  string   `json:"trace_hash"`
	Events     uint64   `json:"events_fired,omitempty"`
	// ClampedGroups counts groups that ran narrower than the requested
	// width (geo clamps the ask to its region count). Surfaced per the
	// no-silent-caps convention.
	ClampedGroups int `json:"clamped_groups,omitempty"`
}

// ladderReport is the BENCH_*.json artifact a ladder bench writes, and the
// baseline its -gate reads back.
type ladderReport struct {
	Suite      string        `json:"suite"`
	CapturedAt string        `json:"captured_at"`
	GoVersion  string        `json:"go_version"`
	NumCPU     int           `json:"num_cpu"`
	Seed       uint64        `json:"seed"`
	Quick      bool          `json:"quick"`
	Note       string        `json:"note"`
	Points     []ladderPoint `json:"points"`
}

// rung is what one run of a ladder cell reports.
type rung struct {
	hash   string
	acc    *sim.DomainAccum
	wall   time.Duration
	events uint64
	window time.Duration // nonzero: the run used a bounded coordinator window
}

// traceHash folds the printed form of the given values into one FNV-64a
// sum. %+v of a result renders every float64 in shortest-round-trip form,
// so two hashes agree exactly when the traces' observable outcomes do.
func traceHash(vs ...any) string {
	h := fnv.New64a()
	for _, v := range vs {
		fmt.Fprintf(h, "%+v|", v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ladderBench collects the suites of one ladder bench into its report.
type ladderBench struct {
	name string // the -run name, prefixed to every line printed
	rep  ladderReport
	fail bool
}

func newLadderBench(name, suite string, seed uint64, quick bool, note string) *ladderBench {
	return &ladderBench{name: name, rep: ladderReport{
		Suite:      suite,
		CapturedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		Quick:      quick,
		Note:       note,
	}}
}

// ladder runs suite's cell at each width in widths and appends one point per
// rung. Every point of a suite, across calls, must carry the hash of the
// suite's first point; a divergence marks the bench failed.
func (b *ladderBench) ladder(suite string, widths []int, run func(d int) rung) {
	firstHash, baseWall := "", 0.0
	for _, pt := range b.rep.Points {
		if pt.Suite != suite {
			continue
		}
		if firstHash == "" {
			firstHash = pt.TraceHash
		}
		if pt.Domains == 1 && pt.WindowSec == 0 {
			baseWall = pt.WallMS
		}
	}
	for _, d := range widths {
		r := run(d)
		pt := ladderPoint{
			Suite:         suite,
			Domains:       d,
			WindowSec:     r.window.Seconds(),
			WallMS:        float64(r.wall) / 1e6,
			BusyMS:        float64(r.acc.Busy) / 1e6,
			Utilization:   r.acc.Utilization(),
			Rounds:        r.acc.Rounds,
			Groups:        r.acc.Groups,
			TraceHash:     r.hash,
			Events:        r.events,
			ClampedGroups: r.acc.Clamped,
		}
		if d == 1 && r.window == 0 {
			baseWall = pt.WallMS
		}
		speedup := "n/a"
		if b.rep.NumCPU > 1 && baseWall > 0 {
			s := baseWall / pt.WallMS
			e := s / float64(d)
			pt.Speedup, pt.Efficiency = &s, &e
			speedup = fmt.Sprintf("%.2fx", s)
		}
		window, events := "", ""
		if r.window > 0 {
			window = fmt.Sprintf(" window=%s", r.window)
		}
		if r.events > 0 {
			events = fmt.Sprintf("  events %d", r.events)
		}
		fmt.Printf("%s: %-12s domains=%d%s %8.1f ms wall  %s vs d=1  util %.2f  rounds %d%s  trace %s\n",
			b.name, suite, d, window, pt.WallMS, speedup, pt.Utilization, pt.Rounds, events, pt.TraceHash)
		if r.acc.Clamped > 0 {
			fmt.Printf("%s: note: %s domains=%d: %d group(s) clamped below the requested width\n",
				b.name, suite, d, r.acc.Clamped)
		}
		if firstHash == "" {
			firstHash = r.hash
		} else if r.hash != firstHash {
			fmt.Fprintf(os.Stderr, "%s: FAIL %s: trace diverged at domains=%d%s: %s vs %s\n",
				b.name, suite, d, window, r.hash, firstHash)
			b.fail = true
		}
		b.rep.Points = append(b.rep.Points, pt)
	}
}

// write saves the report to out and returns the bench's exit code: 1 if the
// write failed or any suite's hashes diverged.
func (b *ladderBench) write(out string) int {
	buf, err := json.MarshalIndent(b.rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("%s: wrote %s\n", b.name, out)
	if b.fail {
		fmt.Fprintf(os.Stderr, "%s: cross-domain trace divergence — the determinism contract is broken; do not merge\n", b.name)
		return 1
	}
	return 0
}

// gateTolerance is the slowdown a ladder gate accepts over its baseline.
const gateTolerance = 1.10

// ladderGate is the regression step shared by the ladder benches: re-run
// suite's cell at domains=1 five times, at the seed and scale the baseline
// was captured at, and fail if any run's trace hash differs from the
// baseline's domains=1 row, or if the fastest wall is more than 10% over
// the row's. The minimum of five shaves scheduler noise off a wall-clock
// comparison.
func ladderGate(bench, baselinePath, suite string, run func(seed uint64, quick bool) rung) int {
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s gate: %v\n", bench, err)
		return 1
	}
	var base ladderReport
	if err := json.Unmarshal(buf, &base); err != nil {
		fmt.Fprintf(os.Stderr, "%s gate: parse %s: %v\n", bench, baselinePath, err)
		return 1
	}
	want, wantHash := 0.0, ""
	for _, pt := range base.Points {
		if pt.Suite == suite && pt.Domains == 1 && pt.WindowSec == 0 {
			want, wantHash = pt.WallMS, pt.TraceHash
		}
	}
	if want <= 0 {
		fmt.Fprintf(os.Stderr, "%s gate: no %s domains=1 baseline in %s\n", bench, suite, baselinePath)
		return 1
	}

	best := 0.0
	for rep := 0; rep < 5; rep++ {
		r := run(base.Seed, base.Quick)
		if r.hash != wantHash {
			fmt.Fprintf(os.Stderr, "%s gate: %s trace hash %s differs from recorded %s — the simulation changed; recapture %s with -run %s\n",
				bench, suite, r.hash, wantHash, baselinePath, bench)
			return 1
		}
		if ms := float64(r.wall) / 1e6; best == 0 || ms < best {
			best = ms
		}
	}
	ratio := best / want
	status := "ok"
	if ratio > gateTolerance {
		status = "FAIL"
	}
	fmt.Printf("%s gate: %s domains=1 %8.1f ms vs baseline %8.1f (%.2fx) %s  trace %s\n",
		bench, suite, best, want, ratio, status, wantHash)
	if ratio > gateTolerance {
		fmt.Fprintf(os.Stderr, "%s gate: single-domain wall regression >10%% — investigate before merging (profile with -run %s -cpuprofile cpu.out)\n",
			bench, bench)
		return 1
	}
	fmt.Printf("%s gate: single-domain %s within 10%% of baseline\n", bench, suite)
	return 0
}
