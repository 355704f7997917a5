package azure

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"azureobs/internal/fabric"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/tablesvc"
)

// The scale ladder measures the cost of a client, not the cost of the
// cloud: closed-loop table-query cells (think → request → retry) at 1k and
// 10k clients, run once as flat actors and once as goroutine-per-client
// processes. Both modes drive the identical simulation: same per-client
// random streams, same service pipeline, same retry machine (Retry, which
// RetryPolicy.Do drives for the goroutine clients), so ops, failures,
// server requests, events fired and final virtual time must match exactly,
// and the per-client memory numbers compare only the execution mechanism.

// scaleOpsPerClient is the closed-loop depth: each client thinks, queries,
// and retries through this many operations.
const scaleOpsPerClient = 4

// scalePoint is one (rung, mode) measurement.
type scalePoint struct {
	Ops, Failures  uint64
	ServerRequests uint64
	Events         uint64
	Virtual        time.Duration
	Wall           time.Duration
	PeakRSSMB      float64
	PerClientBytes float64
	AllocsPerOp    float64 // steady state: the second half of the run's operations
}

// scaleHarness is the shared per-rung state: service handles, the key pools,
// the per-client stream root, and the run tallies both modes write into.
type scaleHarness struct {
	eng    *sim.Engine
	svc    *tablesvc.Service
	root   *simrand.RNG
	think  simrand.Dist // pre-boxed: a Dist draw per op must not allocate
	policy RetryPolicy
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
// retry machine (the one RetryPolicy.Do drives for the goroutine clients)
// around each query. Its per-client heap is the cached closures and one
// forked random stream; the actor, the request and retry state, and the
// counters are all in the struct itself.
type scaleClient struct {
	a     sim.Actor
	get   tablesvc.GetFlat
	retry Retry
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
func newScaleCloud(seed uint64) (*Cloud, *scaleHarness) {
	ccfg := Config{Seed: seed}
	ccfg.Fabric = fabric.DefaultConfig()
	ccfg.Fabric.Degradation = false
	ccfg.Table.ServerBusyProb = 0.01
	cloud := NewCloud(ccfg)

	h := &scaleHarness{
		eng:    cloud.Engine,
		svc:    cloud.Table,
		root:   simrand.New(seed).Fork("scale-ladder"),
		think:  simrand.Exponential{Rate: 1 / 0.15}, // mean 150 ms think time
		policy: DefaultRetryPolicy(),
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
		// The goroutine comparator is the repo's standing client idiom: a
		// Client per VM, a spawned process per client, and the real
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

	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	pt := scalePoint{
		Ops:            h.ok,
		Failures:       h.failed,
		ServerRequests: cloud.Ops.Total(),
		Events:         cloud.Engine.EventsFired(),
		Virtual:        cloud.Engine.Now(),
		Wall:           time.Since(start),
		PeakRSSMB:      peakRSSMB(),
	}
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
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != "VmHWM:" {
			continue
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// raceEnabled reports whether the test binary was built with -race. The
// race detector's instrumentation distorts allocation and footprint
// measurements, and it aborts above 8,128 live goroutines.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestScaleLadder runs the scale ladder and holds each rung to its bounds:
// - flat and goroutine runs match exactly in ops, failures, server
// requests, events fired and virtual time;
// - every operation either succeeds or fails, and the server sees more
// requests than operations (the retry machinery runs);
// - at 10k clients, a goroutine client costs at least 5× the bytes of a
// flat one, the flat steady state allocates at most 0.5 objects per op,
// and the process's peak RSS stays within 2048 MB.
//
// The memory bounds run with invariant checking off, the path production
// runs, and are skipped under -race, which also never starts the 10k
// goroutine rung.
func TestScaleLadder(t *testing.T) {
	sim.SetDefaultInvariants(false)
	t.Cleanup(func() { sim.SetDefaultInvariants(true) })
	race := raceEnabled()
	const memRung = 10_000
	for _, n := range []int{1_000, memRung} {
		t.Run(fmt.Sprintf("clients=%d", n), func(t *testing.T) {
			flat := runScaleRung(42, n, true)
			t.Logf("flat: %v wall, %d events, %.0f B/client, %.3f allocs/op, peak RSS %.0f MB",
				flat.Wall, flat.Events, flat.PerClientBytes, flat.AllocsPerOp, flat.PeakRSSMB)
			if flat.Ops+flat.Failures != uint64(n*scaleOpsPerClient) {
				t.Fatalf("accounting hole: ok=%d failed=%d, want %d total", flat.Ops, flat.Failures, n*scaleOpsPerClient)
			}
			if flat.ServerRequests <= flat.Ops+flat.Failures {
				t.Fatalf("server saw %d requests for %d operations: the rung is not exercising the retry machinery",
					flat.ServerRequests, flat.Ops+flat.Failures)
			}
			if race && n == memRung {
				t.Log("race detector on: goroutine rung and memory bounds skipped")
				return
			}
			goro := runScaleRung(42, n, false)
			t.Logf("goroutine: %v wall, %.0f B/client", goro.Wall, goro.PerClientBytes)
			if flat.Ops != goro.Ops || flat.Failures != goro.Failures ||
				flat.ServerRequests != goro.ServerRequests ||
				flat.Events != goro.Events || flat.Virtual != goro.Virtual {
				t.Fatalf("flat and goroutine traces diverge:\nflat: %+v\ngoro: %+v", flat, goro)
			}
			if race || n != memRung {
				return
			}
			if ratio := goro.PerClientBytes / flat.PerClientBytes; !(ratio >= 5) {
				t.Errorf("per-client footprint ratio goroutine/flat %.1fx < 5x (flat %.0f B, goroutine %.0f B)",
					ratio, flat.PerClientBytes, goro.PerClientBytes)
			}
			if flat.AllocsPerOp > 0.5 {
				t.Errorf("flat steady state allocates %.3f/op, want at most 0.5 (the event path must not allocate)",
					flat.AllocsPerOp)
			}
			if budget := 2048.0; flat.PeakRSSMB > budget {
				t.Errorf("peak RSS %.0f MB over the %.0f MB budget", flat.PeakRSSMB, budget)
			}
		})
	}
}
