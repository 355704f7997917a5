package main

import (
	"fmt"
	"math"

	"azureobs/internal/azure"
	"azureobs/internal/fabric"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
)

// The xfer workload is the network-solver load: 2k flat clients, each
// through its own azure.Client, alternate at random between downloading one
// of 32 hot blobs and uploading its own blob, with exponential think times
// between transfers. Downloads of one blob share its egress link and every
// upload shares the service ingress link, so each flow start and finish
// re-solves max-min rates across hundreds of flows: most of the CPU goes to
// netsim. Writes run beside reads in equal shares, so a blob-path change
// that helps GETs but costs PUTs shows here; the even split is chosen for
// that, not taken from a measured trace. An op is one download or upload.
const (
	xferClients   = 2000
	xferTransfers = 8
	xferHotBlobs  = 32
	xferThinkMean = 0.5 // seconds
	xferContainer = "hot"
	xferUploads   = "up"
)

var xferWorkload = workload{
	name:   "xfer",
	window: 100,
	build:  buildXfer,
}

type xferRound struct {
	cloud   *azure.Cloud
	eng     *sim.Engine
	think   simrand.Dist
	sizes   []int64 // hot blob sizes
	clients []xferClient
	m       *meter

	ops, failed, wrong uint64
	bytes              uint64

	tap                    *storageTap // traced rounds only
	pendingPeak, flowsPeak int
}

type xferClient struct {
	a   sim.Actor
	cl  *azure.Client
	rng simrand.RNG
	r   *xferRound

	name   string // the client's own upload
	done   int
	inXfer bool
	want   int64 // size the transfer in flight must report

	onWake func()
	onDone func(int64, error)
}

func buildXfer(cfg roundConfig, tr *tracer) (round, error) {
	ccfg := azure.Config{Seed: cfg.seed, Fabric: fabric.DefaultConfig()}
	ccfg.Fabric.Degradation = false
	cloud := azure.NewCloud(ccfg)
	r := &xferRound{
		cloud: cloud,
		eng:   cloud.Engine,
		think: simrand.Exponential{Rate: 1 / xferThinkMean},
	}
	cloud.Blob.CreateContainer(xferUploads)
	for i := 0; i < xferHotBlobs; i++ {
		size := int64(1+i%4) << 20
		cloud.Blob.Seed(xferContainer, hotBlob(i), size)
		r.sizes = append(r.sizes, size)
	}
	n := max(1, int(math.Round(xferClients*cfg.scale)))
	root := simrand.New(cfg.seed).Fork("perfbench-xfer")
	r.clients = make([]xferClient, n)
	for i := range r.clients {
		c := &r.clients[i]
		c.r = r
		c.cl = cloud.NewClient(nil, i)
		c.a.Bind(r.eng, "xfer-client")
		c.rng = *root.ForkN("client", i)
		c.name = fmt.Sprintf("c%d", i)
		c.onWake = c.wake
		c.onDone = c.finished
	}
	if tr != nil {
		r.tap = tapStorage(cloud)
	}
	return r, nil
}

func hotBlob(i int) string { return fmt.Sprintf("b%02d", i) }

func (r *xferRound) run(m *meter) error {
	r.m = m
	if m.traced {
		net := r.cloud.DC.Net()
		m.sample = func() {
			r.pendingPeak = max(r.pendingPeak, r.eng.Pending())
			r.flowsPeak = max(r.flowsPeak, net.ActiveFlows())
		}
	}
	for i := range r.clients {
		r.clients[i].a.Go(r.clients[i].onWake)
	}
	r.eng.Run()
	return nil
}

// wake alternates think time and transfers until the client's quota.
func (c *xferClient) wake() {
	if !c.inXfer {
		if c.done == xferTransfers {
			c.a.Finish()
			return
		}
		c.inXfer = true
		c.a.Sleep(simrand.Duration(c.r.think, &c.rng), c.onWake)
		return
	}
	if c.rng.Float64() < 0.5 {
		i := int(c.rng.Float64() * xferHotBlobs)
		c.want = c.r.sizes[i]
		c.cl.GetBlobFlat(&c.a, xferContainer, hotBlob(i), c.onDone)
		return
	}
	c.want = int64(1+int(c.rng.Float64()*4)) << 19
	c.cl.PutBlobFlat(&c.a, xferUploads, c.name, c.want, true, c.onDone)
}

func (c *xferClient) finished(size int64, err error) {
	r := c.r
	switch {
	case err != nil:
		r.failed++
	case size != c.want:
		r.wrong++
	}
	r.bytes += uint64(size)
	r.ops++
	c.done++
	c.inXfer = false
	r.m.op()
	c.wake()
}

func (r *xferRound) verify() (outcome, error) {
	out := outcome{ops: r.ops, failed: r.failed}
	for i := range r.clients {
		if c := &r.clients[i]; c.done != xferTransfers || c.a.Live() {
			return out, fmt.Errorf("xfer: client %d completed %d of %d transfers", i, c.done, xferTransfers)
		}
	}
	if want := uint64(len(r.clients) * xferTransfers); r.ops != want {
		return out, fmt.Errorf("xfer: %d transfers completed, want %d", r.ops, want)
	}
	if r.failed > 0 {
		return out, fmt.Errorf("xfer: %d transfers failed", r.failed)
	}
	if r.wrong > 0 {
		return out, fmt.Errorf("xfer: %d transfers moved the wrong number of bytes", r.wrong)
	}
	out.hash = simHash(r.cloud, r.ops, r.failed, r.bytes)
	if r.tap != nil {
		n := float64(r.ops)
		out.layers = map[string]float64{
			"sim.events_per_op":        float64(r.eng.EventsFired()) / n,
			"sim.procs_per_op":         float64(r.eng.ProcsSpawned()) / n,
			"sim.workers_peak":         float64(r.eng.WorkersPeak()),
			"sim.pending_peak":         float64(r.pendingPeak),
			"netsim.flows_per_op":      float64(r.cloud.Blob.Downloads()+r.cloud.Blob.Uploads()) / n,
			"netsim.active_flows_peak": float64(r.flowsPeak),
			"azure.attempts_per_op":    float64(r.clientRequests()) / n,
		}
		r.tap.addLayers(out.layers, r.ops)
	}
	return out, nil
}

// clientRequests is the number of storage requests the clients' own
// azure.Client tallies recorded.
func (r *xferRound) clientRequests() uint64 {
	var n uint64
	for i := range r.clients {
		ops := r.clients[i].cl.Ops()
		for _, op := range ops.Ops() {
			n += ops.Get(op).Latency.N()
		}
	}
	return n
}

func (r *xferRound) close() {}
