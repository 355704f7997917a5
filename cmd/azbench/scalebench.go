package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/fabric"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/tablesvc"
)

// The scalebench artifact measures the cost of a client, not the cost of the
// cloud: a ladder of closed-loop table-query cells (think → request → retry)
// at 1k/10k/100k/1M clients, run on the flat-actor path and — up to 100k —
// on the goroutine path for comparison. Both modes drive the identical
// simulation: same per-client random streams, same service pipeline, same
// retry machine (azure.Retry, which RetryPolicy.Do drives for the goroutine
// clients), so the cross-mode assertions (ops, failures, server
// requests, events fired, final virtual time) check bit-identical traces,
// and the per-client memory numbers compare only the execution mechanism.
//
// The 1M rung is the paper's "what if the cell were three orders of
// magnitude wider" question: it runs flat-only, where a goroutine per
// client would stand up a million stacks.

// scaleOpsPerClient is the closed-loop depth: each client thinks, queries,
// and retries through this many operations.
const scaleOpsPerClient = 4

// scalePoint is one (rung, mode) measurement.
type scalePoint struct {
	Clients        int     `json:"clients"`
	Mode           string  `json:"mode"` // "flat" | "goroutine"
	OpsPerClient   int     `json:"ops_per_client"`
	Ops            uint64  `json:"ops_ok"`
	Failures       uint64  `json:"ops_failed"`
	ServerRequests uint64  `json:"server_requests"`
	VirtualSec     float64 `json:"virtual_sec"`
	WallMS         float64 `json:"wall_ms"`
	Events         uint64  `json:"events_fired"`
	EventsPerSec   float64 `json:"events_per_wall_sec"`
	PeakRSSMB      float64 `json:"peak_rss_mb"`
	PerClientBytes float64 `json:"per_client_bytes"`
	AllocsPerOp    float64 `json:"steady_allocs_per_op"`
}

type scaleReport struct {
	Suite      string       `json:"suite"`
	CapturedAt string       `json:"captured_at"`
	GoVersion  string       `json:"go_version"`
	NumCPU     int          `json:"num_cpu"`
	Note       string       `json:"note"`
	Ladder     []scalePoint `json:"ladder"`
	// FootprintRatio is goroutine-over-flat per-client bytes at the largest
	// rung both modes ran.
	FootprintRatio float64 `json:"footprint_ratio_goroutine_over_flat"`
}

// scaleHarness is the shared per-rung state: service handles, the key pools,
// the per-client stream root, and the run tallies both modes write into.
type scaleHarness struct {
	eng    *sim.Engine
	svc    *tablesvc.Service
	root   *simrand.RNG
	think  simrand.Dist // pre-boxed: a Dist draw per op must not allocate
	policy azure.RetryPolicy
	pks    []string
	rks    []string

	ok, failed uint64

	// Mid-run probe: at half the total operations, force a GC and snapshot
	// heap+stack in-use (per-client footprint) and Mallocs (the steady-state
	// allocation window runs from here to the end of the run).
	completed, half uint64
	midInuse        uint64
	mallocsAtProbe  uint64
	opsAtProbe      uint64
}

func (h *scaleHarness) opFinished(err error) {
	if err != nil {
		h.failed++
	} else {
		h.ok++
	}
	h.completed++
	if h.completed == h.half {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		h.midInuse = ms.HeapInuse + ms.StackInuse
		h.mallocsAtProbe = ms.Mallocs
		h.opsAtProbe = h.completed
	}
}

// scaleClient is one flat-mode client: the closed-loop think/request cycle
// compiled into a struct that lives in the rung's client slice, with the
// azure retry machine (the one RetryPolicy.Do drives for the goroutine
// clients) around each query. Its per-client heap is the cached closures
// and one forked random stream; the actor, the request and retry state, and
// the counters are all in the struct itself.
type scaleClient struct {
	a     sim.Actor
	get   tablesvc.GetFlat
	retry azure.Retry
	rng   simrand.RNG // per-client stream: think draws and retry jitter, by value
	h     *scaleHarness

	pk, rk    string
	remaining int

	onIssue func() // think sleeps land here
}

func (c *scaleClient) init(h *scaleHarness, i int) {
	c.h = h
	c.a.Bind(h.eng, "scale-client")
	c.rng = *h.root.ForkN("scale-client", i)
	c.onIssue = c.issue
	c.get.Init(h.svc, c.gotEntity)
	c.retry.Policy = h.policy
	c.retry.Policy.Rand = &c.rng
	c.retry.Init(c.attempt, c.opDone)
	c.pk = h.pks[i%len(h.pks)]
	c.rk = h.rks[(i/len(h.pks))%len(h.rks)]
	c.remaining = scaleOpsPerClient
}

func (c *scaleClient) begin() { c.a.Go(c.think) }

// think draws the next think time, or finishes the client after its last
// operation.
func (c *scaleClient) think() {
	if c.remaining == 0 {
		c.a.Finish()
		return
	}
	c.remaining--
	c.a.Sleep(simrand.Duration(c.h.think, &c.rng), c.onIssue)
}

func (c *scaleClient) issue()   { c.retry.Begin(&c.a) }
func (c *scaleClient) attempt() { c.get.Begin(&c.a, "scale", c.pk, c.rk) }

func (c *scaleClient) gotEntity(_ *tablesvc.Entity, err error) { c.retry.Done(err) }

func (c *scaleClient) opDone(err error) {
	c.h.opFinished(err)
	c.think()
}

// newScaleCloud builds the rung's cloud: a table service with a mild
// server-busy rate (so the retry machinery actually runs) and a pre-seeded
// 64×64 key grid of 1 kB entities.
func newScaleCloud(seed uint64) (*azure.Cloud, *scaleHarness) {
	ccfg := azure.Config{Seed: seed}
	ccfg.Fabric = fabric.DefaultConfig()
	ccfg.Fabric.Degradation = false
	ccfg.Table.ServerBusyProb = 0.01
	cloud := azure.NewCloud(ccfg)

	h := &scaleHarness{
		eng:    cloud.Engine,
		svc:    cloud.Table,
		root:   simrand.New(seed).Fork("scalebench"),
		think:  simrand.Exponential{Rate: 1 / 0.15}, // mean 150 ms think time
		policy: azure.DefaultRetryPolicy(),
	}
	h.policy.Jitter = 0.5

	cloud.Table.CreateTable("scale")
	for i := 0; i < 64; i++ {
		h.pks = append(h.pks, fmt.Sprintf("p%02d", i))
		h.rks = append(h.rks, fmt.Sprintf("r%02d", i))
	}
	for _, pk := range h.pks {
		for _, rk := range h.rks {
			cloud.Table.Backdoor("scale", &tablesvc.Entity{
				PartitionKey: pk, RowKey: rk, PadBytes: 1024,
			})
		}
	}
	return cloud, h
}

func memInuseBaseline() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse + ms.StackInuse
}

// runScaleRung runs one (clients, mode) cell and returns its measurement.
func runScaleRung(seed uint64, n int, flat bool) scalePoint {
	cloud, h := newScaleCloud(seed)
	h.half = uint64(n*scaleOpsPerClient) / 2

	mode := "goroutine"
	if flat {
		mode = "flat"
	}
	pt := scalePoint{Clients: n, Mode: mode, OpsPerClient: scaleOpsPerClient}

	var baseline uint64
	start := time.Now()
	if flat {
		baseline = memInuseBaseline()
		clients := make([]scaleClient, n)
		for i := range clients {
			clients[i].init(h, i)
		}
		for i := range clients {
			clients[i].begin()
		}
	} else {
		// The goroutine comparator is the repo's standing client idiom: an
		// azure.Client per VM, a spawned process per client, and the real
		// RetryPolicy.Do around GetEntity. The fleet exists before the
		// baseline snapshot so per-client bytes cover only the client side.
		vms := cloud.Controller.ReadyFleet(n, fabric.Worker, fabric.Small)
		baseline = memInuseBaseline()
		for i := 0; i < n; i++ {
			cl := cloud.NewClient(vms[i], i)
			cs := h.root.ForkN("scale-client", i)
			policy := h.policy
			policy.Rand = cs
			pk := h.pks[i%len(h.pks)]
			rk := h.rks[(i/len(h.pks))%len(h.rks)]
			cloud.Engine.Spawn("scale-client", func(p *sim.Proc) {
				for op := 0; op < scaleOpsPerClient; op++ {
					p.Sleep(simrand.Duration(h.think, cs))
					err := policy.Do(p, func() error {
						_, err := cl.GetEntity(p, "scale", pk, rk)
						return err
					})
					h.opFinished(err)
				}
			})
		}
	}
	cloud.Engine.Run()
	wall := time.Since(start)

	var end runtime.MemStats
	runtime.ReadMemStats(&end)

	pt.Ops = h.ok
	pt.Failures = h.failed
	pt.ServerRequests = cloud.Ops.Total()
	pt.VirtualSec = cloud.Engine.Now().Seconds()
	pt.WallMS = float64(wall) / 1e6
	pt.Events = cloud.Engine.EventsFired()
	if wall > 0 {
		pt.EventsPerSec = float64(pt.Events) / wall.Seconds()
	}
	pt.PeakRSSMB = peakRSSMB()
	if h.midInuse > baseline && n > 0 {
		pt.PerClientBytes = float64(h.midInuse-baseline) / float64(n)
	}
	if window := h.completed - h.opsAtProbe; window > 0 && h.mallocsAtProbe > 0 {
		pt.AllocsPerOp = float64(end.Mallocs-h.mallocsAtProbe) / float64(window)
	}
	return pt
}

// peakRSSMB reads the process resident-set high-water mark (VmHWM) from
// /proc/self/status; 0 when unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// sameTrace checks the cross-mode equivalence axes: everything the virtual
// execution determines must match exactly between flat and goroutine runs.
func sameTrace(a, b scalePoint) bool {
	return a.Ops == b.Ops && a.Failures == b.Failures &&
		a.ServerRequests == b.ServerRequests &&
		a.Events == b.Events && a.VirtualSec == b.VirtualSec
}

func runScaleBench(seed uint64, quick bool, out string) int {
	rungs := []int{1_000, 10_000, 100_000, 1_000_000}
	maxGoroutine := 100_000
	if quick {
		rungs = []int{1_000, 10_000}
		maxGoroutine = 10_000
	}
	// The assertion rung: the largest with both modes. The 10x footprint
	// contract is pinned at 100k (full runs); quick/smoke runs check a
	// looser 5x at 10k, where GC granularity is coarser relative to n.
	assertRung := 100_000
	minRatio := 10.0
	if quick {
		assertRung = 10_000
		minRatio = 5.0
	}

	rep := scaleReport{
		Suite:      "scale",
		CapturedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Note: "closed-loop table-query cells (exp(150ms) think, 4 ops/client, default retry " +
			"policy with 0.5 jitter, 1% server-busy) at 1k/10k/100k/1M clients. mode=flat runs " +
			"clients as kernel-driven flat actors; mode=goroutine is the process-per-client " +
			"idiom, run up to 100k for comparison. Both modes consume identical random streams, " +
			"so ops/failures/server_requests/events_fired/virtual_sec match exactly — the " +
			"per-client memory numbers isolate the execution mechanism. per_client_bytes is " +
			"(HeapInuse+StackInuse at a mid-run GC probe − post-setup baseline)/clients; " +
			"steady_allocs_per_op counts Mallocs over the second half of the run's operations.",
	}

	fail := false
	for _, n := range rungs {
		flat := runScaleRung(seed, n, true)
		rep.Ladder = append(rep.Ladder, flat)
		fmt.Printf("scalebench: %8d clients flat      %8.0f ms wall  %9d events  %11.0f ev/s  %6.0f B/client  %5.3f allocs/op  RSS %.0f MB\n",
			n, flat.WallMS, flat.Events, flat.EventsPerSec, flat.PerClientBytes, flat.AllocsPerOp, flat.PeakRSSMB)

		if n > maxGoroutine {
			continue
		}
		goro := runScaleRung(seed, n, false)
		rep.Ladder = append(rep.Ladder, goro)
		fmt.Printf("scalebench: %8d clients goroutine %8.0f ms wall  %9d events  %11.0f ev/s  %6.0f B/client\n",
			n, goro.WallMS, goro.Events, goro.EventsPerSec, goro.PerClientBytes)

		if !sameTrace(flat, goro) {
			fmt.Fprintf(os.Stderr, "scalebench: FAIL %d clients: flat and goroutine traces diverge:\n"+
				"  flat: ok=%d failed=%d server=%d events=%d virtual=%.9f\n"+
				"  goro: ok=%d failed=%d server=%d events=%d virtual=%.9f\n",
				n, flat.Ops, flat.Failures, flat.ServerRequests, flat.Events, flat.VirtualSec,
				goro.Ops, goro.Failures, goro.ServerRequests, goro.Events, goro.VirtualSec)
			fail = true
		}

		if n == assertRung {
			if flat.PerClientBytes > 0 {
				rep.FootprintRatio = goro.PerClientBytes / flat.PerClientBytes
			}
			fmt.Printf("scalebench: %8d clients footprint ratio goroutine/flat = %.1fx\n", n, rep.FootprintRatio)
			if raceEnabled {
				fmt.Println("scalebench: race detector active — memory gates skipped (instrumented allocations)")
			} else {
				if rep.FootprintRatio < minRatio {
					fmt.Fprintf(os.Stderr, "scalebench: FAIL %d clients: per-client footprint ratio %.1fx < %.0fx (flat %0.f B, goroutine %.0f B)\n",
						n, rep.FootprintRatio, minRatio, flat.PerClientBytes, goro.PerClientBytes)
					fail = true
				}
				if flat.AllocsPerOp > 0.5 {
					fmt.Fprintf(os.Stderr, "scalebench: FAIL %d clients: flat steady state allocates %.3f/op, want ~0 (event path must be allocation-free)\n",
						n, flat.AllocsPerOp)
					fail = true
				}
				if quick {
					// Smoke RSS budget: the 10k rung plus fixed cloud setup
					// must stay far below any leak-shaped blowup.
					if budget := 2048.0; flat.PeakRSSMB > budget {
						fmt.Fprintf(os.Stderr, "scalebench: FAIL %d clients: peak RSS %.0f MB over %v MB smoke budget\n",
							n, flat.PeakRSSMB, budget)
						fail = true
					}
				}
			}
		}
	}

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
	fmt.Printf("scalebench: wrote %s\n", out)
	if fail {
		return 1
	}
	return 0
}
