package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/fabric"
	"azureobs/internal/netsim"
	"azureobs/internal/sim"
)

// The simbench artifact measures the kernel itself — the event queue, the
// cancel/reschedule paths, and process spawn/switch cost that every
// experiment bottoms out in — and writes BENCH_sim.json so kernel performance
// is tracked across PRs. Each workload is deterministic (fixed arithmetic
// churn patterns, no wall-clock dependence inside the simulation), so two
// captures differ only in timing, never in the simulated work done.
//
// seedSimNs are the same workloads captured on the pre-overhaul kernel
// (container/heap binary heap with eager O(log n) Cancel removal, one fresh
// goroutine + channel pair per spawned process) with this exact harness on
// the reference machine, taking the minimum of three full-scale repetitions.
// That capture spelled the cancel and move idioms as the legacy
// Cancel + Recycle + Schedule; everything else was byte-identical.
var seedSimNs = map[string]float64{
	"cancel-churn/1024":  716.7,
	"cancel-churn/8192":  828.6,
	"resched-churn/1024": 738.8,
	"spawn-churn":        677.7,
	"sleep-ladder":       671.8,
}

// seedSimAllocs are the matching pre-overhaul allocations per op.
var seedSimAllocs = map[string]float64{
	"cancel-churn/1024":  2.0,
	"cancel-churn/8192":  2.0,
	"resched-churn/1024": 2.0,
	"spawn-churn":        6.03,
	"sleep-ladder":       4.00,
}

// seedFig1CellMS is the pre-overhaul wall time of the 192-client cell, and
// seedFig1GoroutinesHW the goroutine high-water mark the in-sim sampler saw
// on that kernel (one fresh goroutine per spawned process, none reused).
var (
	seedFig1CellMS       float64 = 383.8
	seedFig1GoroutinesHW int     = 963
)

// simPoint is one kernel microbenchmark measurement.
type simPoint struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	SeedNsOp    float64 `json:"seed_ns_per_op,omitempty"`
	SeedAllocs  float64 `json:"seed_allocs_per_op,omitempty"`
	Speedup     float64 `json:"speedup_vs_seed,omitempty"`
}

// fig1CellStats is the observability record for the fig1 192-client cell:
// the goroutine high-water mark before/after process reuse, and a guard
// against worker-pool leaks (workers_peak should track concurrent processes,
// not total spawns). goroutines_highwater is sampled by an in-sim daemon, so
// pre- and post-overhaul kernels measure it identically.
type fig1CellStats struct {
	Clients             int     `json:"clients"`
	RequestsPerVM       int     `json:"requests_per_vm"`
	WallMS              float64 `json:"wall_ms"`
	SeedWallMS          float64 `json:"seed_wall_ms,omitempty"`
	Speedup             float64 `json:"speedup_vs_seed,omitempty"`
	SpawnedProcs        uint64  `json:"spawned_procs"`
	GoroutinesHighwater int     `json:"goroutines_highwater"`
	SeedGoroutinesHW    int     `json:"seed_goroutines_highwater,omitempty"`
	WorkersCreated      uint64  `json:"workers_created_goroutines"`
	WorkersReused       uint64  `json:"workers_reused"`
	WorkersPeak         int     `json:"workers_peak"`
}

type simBenchReport struct {
	Suite      string        `json:"suite"`
	CapturedAt string        `json:"captured_at"`
	GoVersion  string        `json:"go_version"`
	NumCPU     int           `json:"num_cpu"`
	Note       string        `json:"note"`
	Kernel     []simPoint    `json:"kernel"`
	Fig1Cell   fig1CellStats `json:"fig1_cell"`
}

const churnTick = time.Microsecond

// cancelChurn is a kernel churn pattern with one pending event per flow, as
// netsim kept before a fabric held a single completion event: per fired
// completion, a flow removal cancels its pending completion somewhere in the
// window and schedules the successor flow's, and the bandwidth handed back
// moves the completions of the seven flows that inherit it. One callback
// closure per slot, created once and reused across reschedules.
func cancelChurn(pop, iters int) {
	const cancels = 1
	eng := sim.NewEngine()
	evs := make([]*sim.Event, pop)
	fns := make([]func(), pop)
	offs := churnOffsets(pop)
	refill := make([]int, 0, 16)
	for s := range fns {
		s := s
		fns[s] = func() {
			eng.Recycle(evs[s]) // fired event back to the pool
			evs[s] = nil
			refill = append(refill, s)
		}
	}
	for s := range evs {
		evs[s] = eng.Schedule(time.Duration(s+1)*churnTick, fns[s])
	}
	mask := len(offs) - 1
	for i := 0; i < iters; i++ {
		for j := 0; j < 8; j++ {
			k := i*8 + j
			s := k & (pop - 1)
			at := eng.Now() + offs[k&mask]
			switch {
			case evs[s] == nil:
				evs[s] = eng.Schedule(at, fns[s])
			case j < cancels:
				eng.CancelRecycle(evs[s])
				evs[s] = eng.Schedule(at, fns[s])
			default:
				eng.Reschedule(evs[s], at)
			}
		}
		eng.Step()
		for _, s := range refill {
			evs[s] = eng.Schedule(eng.Now()+offs[(i+s)&mask], fns[s])
		}
		refill = refill[:0]
	}
}

// churnOffsets is a fixed Knuth-hash table of window offsets: pseudorandom
// disorder for the heap with no hot-loop division and the identical event
// sequence in every capture.
func churnOffsets(pop int) []time.Duration {
	offs := make([]time.Duration, 4096)
	for i := range offs {
		offs[i] = churnTick + time.Duration(uint32(i)*2654435761%uint32(pop))*churnTick
	}
	return offs
}

// reschedChurn is the per-flow-event move idiom netsim used before a fabric
// held a single completion event: rate changes push the completion times of
// still-pending events around the window, eight moves per fired event, spread pseudorandomly (fixed Knuth hash table, so every capture
// runs the identical event sequence).
func reschedChurn(pop, iters int) {
	eng := sim.NewEngine()
	evs := make([]*sim.Event, pop)
	fns := make([]func(), pop)
	offs := churnOffsets(pop)
	refill := make([]int, 0, 16)
	for s := range fns {
		s := s
		fns[s] = func() {
			eng.Recycle(evs[s])
			evs[s] = nil
			refill = append(refill, s)
		}
	}
	for s := range evs {
		evs[s] = eng.Schedule(time.Duration(s+1)*churnTick, fns[s])
	}
	mask := len(offs) - 1
	for i := 0; i < iters; i++ {
		for j := 0; j < 8; j++ {
			k := i*8 + j
			s := k & (pop - 1)
			if evs[s] != nil {
				eng.Reschedule(evs[s], eng.Now()+offs[k&mask])
			} else {
				evs[s] = eng.Schedule(eng.Now()+offs[k&mask], fns[s])
			}
		}
		eng.Step()
		for _, s := range refill {
			evs[s] = eng.Schedule(eng.Now()+offs[(i+s)&mask], fns[s])
		}
		refill = refill[:0]
	}
}

// spawnChurn measures spawn/finish cost: a driver process spawns empty
// children in batches of 64 and yields so they run — the closed-loop
// client-pool pattern (one process per request) distilled.
func spawnChurn(iters int) {
	eng := sim.NewEngine()
	nobody := func(p *sim.Proc) {}
	spawned := 0
	eng.Spawn("driver", func(p *sim.Proc) {
		for spawned < iters {
			n := 64
			if left := iters - spawned; left < n {
				n = left
			}
			for j := 0; j < n; j++ {
				eng.Spawn("w", nobody)
				spawned++
			}
			p.Yield()
		}
	})
	eng.Run()
}

// sleepLadder measures the suspend/resume handoff: 64 processes sleeping
// staggered durations, iters wakeups in total.
func sleepLadder(iters int) {
	eng := sim.NewEngine()
	const lanes = 64
	done := 0
	for k := 0; k < lanes; k++ {
		d := time.Duration(k%7+1) * time.Millisecond
		eng.Spawn("sleeper", func(p *sim.Proc) {
			for done < iters {
				done++
				p.Sleep(d)
			}
		})
	}
	eng.Run()
}

// fig1Cell192 runs one closed-loop fig1-style cell: 192 clients each issuing
// sequential ParallelGet requests against one shared blob, the workload whose
// per-request process fan-out motivated worker reuse. It returns the wall
// time and the engine's process/worker accounting.
func fig1Cell192(seed uint64, clients, requests int) fig1CellStats {
	ccfg := azure.Config{Seed: seed}
	ccfg.Fabric = fabric.DefaultConfig()
	ccfg.Fabric.Degradation = false
	cloud := azure.NewCloud(ccfg)
	cloud.Blob.CreateContainer("bench")
	size := 32 * netsim.MB

	staged := false
	stager := cloud.NewClient(cloud.Controller.ReadyFleet(1, fabric.Worker, fabric.Small)[0], 1_000_000)
	cloud.Engine.Spawn("stage", func(p *sim.Proc) {
		if err := stager.PutBlob(p, "bench", "shared", size, true); err != nil {
			panic(err)
		}
		staged = true
	})
	cloud.Engine.Run()
	if !staged {
		panic("simbench: staging failed")
	}

	// Sample the process goroutine high-water from inside the simulation: a
	// daemon that polls every 10ms of simulated time runs identically on any
	// kernel, so pre/post-overhaul captures are directly comparable.
	peakG := 0
	cloud.Engine.SpawnDaemon("gsampler", func(p *sim.Proc) {
		for {
			if n := runtime.NumGoroutine(); n > peakG {
				peakG = n
			}
			p.Sleep(10 * time.Millisecond)
		}
	})

	vms := cloud.Controller.ReadyFleet(clients, fabric.Worker, fabric.Small)
	for i := 0; i < clients; i++ {
		cl := cloud.NewClient(vms[i], i)
		cloud.Engine.Spawn(fmt.Sprintf("dl%d", i), func(p *sim.Proc) {
			for r := 0; r < requests; r++ {
				if _, err := cl.ParallelGet(p, "bench", "shared", 4); err != nil {
					panic(err)
				}
			}
		})
	}
	start := time.Now()
	cloud.Engine.Run()
	st := fig1CellStats{
		Clients:             clients,
		RequestsPerVM:       requests,
		WallMS:              float64(time.Since(start)) / 1e6,
		GoroutinesHighwater: peakG,
		SpawnedProcs:        cloud.Engine.ProcsSpawned(),
		WorkersCreated:      cloud.Engine.WorkersCreated(),
		WorkersReused:       cloud.Engine.WorkersReused(),
		WorkersPeak:         cloud.Engine.WorkersPeak(),
	}
	return st
}

// timeWorkload runs fn once for warmup at a tenth of the iterations, then
// times a full run, reporting ns and allocations per op.
func timeWorkload(iters int, fn func(int)) (nsPerOp, allocsPerOp float64) {
	fn(iters/10 + 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn(iters)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(iters),
		float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// simSuites is the kernel microbenchmark table, shared by the full capture
// and the regression gate. Iters are full-scale; quick runs divide by 10.
var simSuites = []struct {
	name  string
	iters int
	churn bool // kernel-churn suite: gated against >10% regression
	run   func(int)
}{
	{"cancel-churn/1024", 200000, true, func(n int) { cancelChurn(1024, n) }},
	{"cancel-churn/8192", 50000, true, func(n int) { cancelChurn(8192, n) }},
	{"resched-churn/1024", 200000, true, func(n int) { reschedChurn(1024, n) }},
	{"spawn-churn", 300000, true, spawnChurn},
	{"sleep-ladder", 500000, false, sleepLadder},
}

func runSimBench(seed uint64, quick bool, out string) int {
	rep := simBenchReport{
		Suite:      "sim",
		CapturedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Note: "kernel microbenchmarks: cancel-churn retires the soonest pending completion and " +
			"schedules a replacement; resched-churn moves eight pending completions per fired " +
			"event (both are the per-flow-event patterns netsim used before each fabric kept a " +
			"single completion event); spawn-churn is the " +
			"closed-loop one-process-per-request pattern, where the remaining steady-state " +
			"allocation is the Proc descriptor itself (events, channels, goroutines and " +
			"closures are all reused); allocs_per_op from MemStats. seed_* fields were " +
			"captured with this harness on the pre-overhaul kernel (container/heap + eager " +
			"cancel + goroutine-per-spawn). fig1_cell records the goroutine high-water mark: " +
			"seed_goroutines_highwater is what the pre-reuse kernel stood up, workers_peak " +
			"is the pooled kernel's high-water mark.",
	}

	scale := 1
	if quick {
		scale = 10
	}
	for _, s := range simSuites {
		ns, allocs := timeWorkload(s.iters/scale, s.run)
		pt := simPoint{Name: s.name, Iters: s.iters / scale, NsPerOp: ns, AllocsPerOp: allocs}
		if base := seedSimNs[s.name]; base > 0 {
			pt.SeedNsOp = base
			pt.SeedAllocs = seedSimAllocs[s.name]
			pt.Speedup = base / ns
		}
		rep.Kernel = append(rep.Kernel, pt)
		fmt.Printf("simbench: %-20s %10.1f ns/op  %6.2f allocs/op  (%.2fx vs seed)\n",
			s.name, ns, allocs, pt.Speedup)
	}

	cellClients, cellReqs := 192, 8
	if quick {
		cellClients, cellReqs = 48, 2
	}
	fig1Cell192(seed, cellClients/4, 1) // warmup
	rep.Fig1Cell = fig1Cell192(seed, cellClients, cellReqs)
	if cellClients == 192 {
		rep.Fig1Cell.SeedWallMS = seedFig1CellMS
		rep.Fig1Cell.Speedup = seedFig1CellMS / rep.Fig1Cell.WallMS
		rep.Fig1Cell.SeedGoroutinesHW = seedFig1GoroutinesHW
	}
	fmt.Printf("simbench: fig1 cell %d clients x %d reqs: %.1f ms wall, %d procs spawned, goroutine high-water %d, %d worker goroutines (peak %d, reused %d)\n",
		rep.Fig1Cell.Clients, rep.Fig1Cell.RequestsPerVM, rep.Fig1Cell.WallMS,
		rep.Fig1Cell.SpawnedProcs, rep.Fig1Cell.GoroutinesHighwater,
		rep.Fig1Cell.WorkersCreated, rep.Fig1Cell.WorkersPeak, rep.Fig1Cell.WorkersReused)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("simbench: wrote %s\n", out)
	return 0
}

// runSimGate is the benchstat-style regression step: re-run each kernel-churn
// suite at reduced scale (minimum over five repetitions, to shave scheduler
// noise) and fail if any is more than 10% slower than the ns_per_op recorded
// in the checked-in BENCH_sim.json.
func runSimGate(baselinePath string) int {
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench gate: %v\n", err)
		return 1
	}
	var base simBenchReport
	if err := json.Unmarshal(buf, &base); err != nil {
		fmt.Fprintf(os.Stderr, "simbench gate: parse %s: %v\n", baselinePath, err)
		return 1
	}
	baseNs := make(map[string]float64, len(base.Kernel))
	for _, pt := range base.Kernel {
		baseNs[pt.Name] = pt.NsPerOp
	}

	const tolerance = 1.10
	failed := false
	for _, s := range simSuites {
		if !s.churn {
			continue
		}
		want, ok := baseNs[s.name]
		if !ok || want <= 0 {
			fmt.Printf("simbench gate: %-20s SKIP (no baseline in %s)\n", s.name, baselinePath)
			continue
		}
		best := 0.0
		for rep := 0; rep < 5; rep++ {
			ns, _ := timeWorkload(s.iters/2, s.run)
			if best == 0 || ns < best {
				best = ns
			}
		}
		ratio := best / want
		status := "ok"
		if ratio > tolerance {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("simbench gate: %-20s %10.1f ns/op vs baseline %10.1f (%.2fx) %s\n",
			s.name, best, want, ratio, status)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "simbench gate: kernel churn regression >10% — investigate before merging (profile with -run simbench -cpuprofile cpu.out)")
		return 1
	}
	fmt.Println("simbench gate: all kernel churn benchmarks within 10% of baseline")
	return 0
}
