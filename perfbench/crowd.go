package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/fabric"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/storerr"
	"azureobs/internal/storage/tablesvc"
)

// The crowd workload is a very wide closed loop of flat table clients: 200k
// clients each think (exponential, mean 150 ms), query one entity of a
// pre-seeded 64×64 grid, and retry ServerBusy replies (1% of requests) with
// the default storage retry policy's exponential backoff and jitter, four
// queries each. The retry loop is the benchmark's own flat copy of
// azure.RetryPolicy.Do, which only runs on blocking processes. It holds
// ~200k events in the kernel heap, so its speed is a cache-footprint test of
// the sim heap and of the table request path (reqpath, station, tablesvc)
// and the retry loop. Tables cost no netsim flows, and nothing goes over the
// wire. An op is one query, retries included.
const (
	crowdClients     = 200_000
	crowdQueries     = 4
	crowdBusyProb    = 0.01
	crowdThinkMean   = 0.150 // seconds
	crowdTable       = "crowd"
	crowdGrid        = 64
	crowdEntityBytes = 1024
	// crowdAttempts is the retry budget of one query. With the default
	// policy's four, a query fails with probability 1e-8 and one seed in
	// about 125 would fail a query; six make a failed query a defect.
	crowdAttempts = 6
)

var crowdWorkload = workload{
	name:   "crowd",
	window: 6000,
	build:  buildCrowd,
}

type crowdRound struct {
	cloud   *azure.Cloud
	eng     *sim.Engine
	policy  azure.RetryPolicy
	think   simrand.Dist // boxed once: a draw per op must not allocate
	clients []crowdClient
	m       *meter

	ops, failed, attempts uint64

	tap         *storageTap // traced rounds only
	pendingPeak int
}

// crowdClient is one closed-loop client, a flat actor that lives inline in
// the round's client slice.
type crowdClient struct {
	a   sim.Actor
	get tablesvc.GetFlat
	rng simrand.RNG
	r   *crowdRound

	pk, rk  string
	done    int // completed queries
	inQuery bool
	attempt int
	backoff time.Duration

	onWake func()
	onDone func(*tablesvc.Entity, error)
}

func buildCrowd(cfg roundConfig, tr *tracer) (round, error) {
	ccfg := azure.Config{Seed: cfg.seed, Fabric: fabric.DefaultConfig()}
	ccfg.Fabric.Degradation = false
	ccfg.Table.ServerBusyProb = crowdBusyProb
	cloud := azure.NewCloud(ccfg)
	r := &crowdRound{
		cloud:  cloud,
		eng:    cloud.Engine,
		policy: azure.DefaultRetryPolicy(),
		think:  simrand.Exponential{Rate: 1 / crowdThinkMean},
	}
	r.policy.Jitter = 0.5 // drawn from each client's own stream
	r.policy.MaxAttempts = crowdAttempts

	keys := make([]string, crowdGrid)
	cloud.Table.CreateTable(crowdTable)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	for _, pk := range keys {
		for _, rk := range keys {
			cloud.Table.Backdoor(crowdTable, tablesvc.PaddedEntity(pk, rk, crowdEntityBytes))
		}
	}

	n := max(1, int(math.Round(crowdClients*cfg.scale)))
	root := simrand.New(cfg.seed).Fork("perfbench-crowd")
	r.clients = make([]crowdClient, n)
	for i := range r.clients {
		c := &r.clients[i]
		c.r = r
		c.a.Bind(r.eng, "crowd-client")
		c.rng = *root.ForkN("client", i)
		c.onWake = c.wake
		c.onDone = c.finished
		c.get.Init(cloud.Table, c.onDone)
		c.pk = keys[i%crowdGrid]
		c.rk = keys[(i/crowdGrid)%crowdGrid]
	}
	if tr != nil {
		r.tap = tapStorage(cloud)
	}
	return r, nil
}

func (r *crowdRound) run(m *meter) error {
	r.m = m
	if m.traced {
		m.sample = func() { r.pendingPeak = max(r.pendingPeak, r.eng.Pending()) }
	}
	for i := range r.clients {
		r.clients[i].a.Go(r.clients[i].onWake)
	}
	r.eng.Run()
	return nil
}

// wake is every timer expiry: inside a query it issues the next attempt;
// between queries it thinks, or finishes the client at its quota.
func (c *crowdClient) wake() {
	if c.inQuery {
		c.r.attempts++
		c.get.Begin(&c.a, crowdTable, c.pk, c.rk)
		return
	}
	if c.done == crowdQueries {
		c.a.Finish()
		return
	}
	c.inQuery = true
	c.attempt = 0
	c.backoff = c.r.policy.Backoff
	c.a.Sleep(simrand.Duration(c.r.think, &c.rng), c.onWake)
}

// finished follows azure.RetryPolicy.Do: a retryable error with attempts
// left waits the jittered backoff and tries again; anything else ends the
// query.
func (c *crowdClient) finished(_ *tablesvc.Entity, err error) {
	p := &c.r.policy
	if err != nil && storerr.IsRetryable(err) {
		c.attempt++
		if c.attempt < p.MaxAttempts {
			wait := time.Duration(float64(c.backoff) * (1 - p.Jitter*c.rng.Float64()))
			c.backoff = time.Duration(float64(c.backoff) * p.Multiplier)
			c.a.Sleep(wait, c.onWake)
			return
		}
	}
	c.inQuery = false
	c.done++
	c.r.ops++
	if err != nil {
		c.r.failed++
	}
	c.r.m.op()
	c.wake()
}

func (r *crowdRound) verify() (outcome, error) {
	out := outcome{ops: r.ops, failed: r.failed}
	for i := range r.clients {
		if c := &r.clients[i]; c.done != crowdQueries || c.a.Live() {
			return out, fmt.Errorf("crowd: client %d completed %d of %d queries", i, c.done, crowdQueries)
		}
	}
	if want := uint64(len(r.clients) * crowdQueries); r.ops != want {
		return out, fmt.Errorf("crowd: %d queries completed, want %d", r.ops, want)
	}
	if r.failed > 0 {
		return out, fmt.Errorf("crowd: %d queries failed after %d attempts", r.failed, crowdAttempts)
	}
	out.hash = simHash(r.cloud, r.ops, r.failed, r.attempts)
	if r.tap != nil {
		n := float64(r.ops)
		out.layers = map[string]float64{
			"sim.events_per_op":     float64(r.eng.EventsFired()) / n,
			"sim.procs_per_op":      float64(r.eng.ProcsSpawned()) / n,
			"sim.workers_peak":      float64(r.eng.WorkersPeak()),
			"sim.pending_peak":      float64(r.pendingPeak),
			"netsim.flows_per_op":   float64(r.cloud.Blob.Downloads()+r.cloud.Blob.Uploads()) / n,
			"azure.attempts_per_op": float64(r.attempts) / n,
		}
		r.tap.addLayers(out.layers, r.ops)
	}
	return out, nil
}

func (r *crowdRound) close() {}

// simHash condenses what a simulation round determines — events fired,
// final virtual time, op outcomes, and every storage request's count,
// errors and mean virtual latency — into one word.
func simHash(c *azure.Cloud, vals ...uint64) string {
	h := fnv.New64a()
	put := func(v uint64) { fmt.Fprintf(h, "%x|", v) }
	put(c.Engine.EventsFired())
	put(uint64(c.Engine.Now()))
	for _, v := range vals {
		put(v)
	}
	for _, op := range c.Ops.Ops() {
		st := c.Ops.Get(op)
		fmt.Fprintf(h, "%s|", op)
		put(st.Latency.N())
		put(st.Errors.Total())
		put(math.Float64bits(st.Latency.Mean()))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
