package core

import (
	"fmt"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/core/sched"
	"azureobs/internal/fabric"
	"azureobs/internal/metrics"
	"azureobs/internal/netsim"
	"azureobs/internal/sim"
)

// Fig1Config scales the blob bandwidth experiment. The paper's protocol
// (Section 3.1): n worker roles simultaneously download the same 1 GB blob /
// upload distinct 1 GB blobs to one container; three runs per setting.
type Fig1Config struct {
	Proto
	BlobMB     int64 // per-transfer size (paper: 1024)
	SkipUpload bool
}

// DefaultFig1Config is the paper-scale protocol.
func DefaultFig1Config() Fig1Config {
	p := Defaults()
	p.Clients = DefaultClientCounts()
	p.Runs = 3
	return Fig1Config{Proto: p, BlobMB: 1024}
}

func (cfg Fig1Config) withDefaults() Fig1Config {
	if cfg.Clients == nil {
		cfg.Clients = DefaultClientCounts()
	}
	if cfg.BlobMB == 0 {
		cfg.BlobMB = 1024
	}
	if cfg.Runs == 0 {
		cfg.Runs = 3
	}
	return cfg
}

// Fig1Point is the measurement at one concurrency level.
type Fig1Point struct {
	Clients        int
	DownMBps       float64 // mean per-client download bandwidth
	UpMBps         float64 // mean per-client upload bandwidth
	DownAggMBps    float64
	UpAggMBps      float64
	DownMBpsStddev float64
}

// Fig1Result is the reproduced Fig. 1 dataset.
type Fig1Result struct {
	Points []Fig1Point
}

// fig1Cell is the outcome of one independent (concurrency level, run)
// cell: a download round and (unless skipped) an upload round, each on
// its own fresh cloud.
type fig1Cell struct {
	down    *metrics.Summary
	downAgg float64
	up      *metrics.Summary
	upAgg   float64
}

// RunFig1 executes the blob bandwidth sweep. Cells — one per (level, run)
// pair — are independent simulations with seeds derived only from the
// run index, so they shard over cfg.Workers; the per-level summaries are
// then merged in the serial order, keeping results bit-identical at any
// worker count.
func RunFig1(cfg Fig1Config) *Fig1Result {
	cfg = cfg.withDefaults()
	runs := cfg.Runs
	cells := sched.Map(sched.New(cfg.Workers), len(cfg.Clients)*runs, func(i int) fig1Cell {
		n, run := cfg.Clients[i/runs], i%runs
		var c fig1Cell
		c.down, c.downAgg = runFig1Round(cfg, n, run, false).finish()
		if !cfg.SkipUpload {
			c.up, c.upAgg = runFig1Round(cfg, n, run, true).finish()
		}
		return c
	})

	res := &Fig1Result{}
	for li, n := range cfg.Clients {
		pt := Fig1Point{Clients: n}
		var down, up, downAgg, upAgg metrics.Summary
		for run := 0; run < runs; run++ {
			c := cells[li*runs+run]
			down.Merge(c.down)
			downAgg.Add(c.downAgg)
			if c.up != nil {
				up.Merge(c.up)
				upAgg.Add(c.upAgg)
			}
		}
		pt.DownMBps = down.Mean()
		pt.DownMBpsStddev = down.Std()
		pt.DownAggMBps = downAgg.Mean()
		pt.UpMBps = up.Mean()
		pt.UpAggMBps = upAgg.Mean()
		res.Points = append(res.Points, pt)
	}
	return res
}

// fig1Round is one download or upload round run to completion on its own
// cloud, with the accumulators its clients fill in.
type fig1Round struct {
	cloud   *azure.Cloud
	per     *metrics.Summary
	total   int64
	lastEnd float64
	base    float64
}

// finish reduces the round's accumulators to its per-client summary and
// aggregate MB/s.
func (r *fig1Round) finish() (*metrics.Summary, float64) {
	return r.per, fig1Agg(r.total, r.lastEnd, r.base)
}

// runFig1Round runs one round of n clients to completion: downloads of one
// shared blob, staged untimed beforehand, or uploads of distinct blobs into
// one container. Upload rounds salt the cloud seed so the two directions of
// a cell draw from unrelated streams.
func runFig1Round(cfg Fig1Config, n, run int, upload bool) *fig1Round {
	salt := run
	if upload {
		salt = run + 7919
	}
	r := &fig1Round{cloud: fig1Cloud(cfg, salt), per: &metrics.Summary{}}
	cloud := r.cloud
	cloud.Blob.CreateContainer("bench")
	size := cfg.BlobMB * netsim.MB

	if !upload {
		// Stage the shared blob without timing it.
		staged := false
		stager := cloud.NewClient(cloud.Controller.ReadyFleet(1, fabric.Worker, fabric.Small)[0], 1_000_000)
		cloud.Engine.Spawn("stage", func(p *sim.Proc) {
			if err := stager.PutBlob(p, "bench", "shared-1g", size, true); err != nil {
				panic(err)
			}
			staged = true
		})
		cloud.Engine.Run()
		if !staged {
			panic("fig1: staging failed")
		}
	}

	vms := cloud.Controller.ReadyFleet(n, fabric.Worker, fabric.Small)
	flats := make([]fig1FlatClient, n)
	for i := range flats {
		fc := &flats[i]
		fc.init(cloud, vms[i], i, r.per, &r.total, &r.lastEnd)
		if upload {
			fc.uploadBlob("bench", fmt.Sprintf("upload-%d", i), size)
		} else {
			fc.download("bench", "shared-1g")
		}
	}
	r.base = cloud.Engine.Now().Seconds()
	cloud.Engine.Run()
	return r
}

// fig1Agg computes a round's aggregate MB/s. A degenerate cell (zero
// clients, or a round that moved no bytes) spans no virtual time; its
// aggregate is 0, not the 0/0 NaN the raw division would produce.
func fig1Agg(totalBytes int64, lastEnd, base float64) float64 {
	if lastEnd <= base {
		return 0
	}
	return float64(totalBytes) / 1e6 / (lastEnd - base)
}

// fig1FlatClient is one fig1 client: a kernel-driven actor issuing one azure
// blob request, with completion handled by cached continuations instead of
// a parked process. One struct (in the round's slice) plus three cached
// closures is the entire per-client cost.
type fig1FlatClient struct {
	a     sim.Actor
	cl    *azure.Client
	start time.Duration

	upload          bool
	size            int64 // upload payload; downloads learn size at completion
	container, name string

	per     *metrics.Summary
	total   *int64
	lastEnd *float64

	onRun  func()
	onDone func(int64, error)
}

func (fc *fig1FlatClient) init(cloud *azure.Cloud, vm *fabric.VM, id int, per *metrics.Summary, total *int64, lastEnd *float64) {
	fc.a.Bind(cloud.Engine, "fig1-flat")
	fc.cl = cloud.NewClient(vm, id)
	fc.per, fc.total, fc.lastEnd = per, total, lastEnd
	fc.onRun = fc.run
	fc.onDone = fc.finish
}

func (fc *fig1FlatClient) download(container, name string) {
	fc.container, fc.name = container, name
	fc.a.Go(fc.onRun)
}

func (fc *fig1FlatClient) uploadBlob(container, name string, size int64) {
	fc.container, fc.name = container, name
	fc.upload, fc.size = true, size
	fc.a.Go(fc.onRun)
}

func (fc *fig1FlatClient) run() {
	fc.start = fc.a.Now()
	if fc.upload {
		fc.cl.PutBlobFlat(&fc.a, fc.container, fc.name, fc.size, true, fc.onDone)
	} else {
		fc.cl.GetBlobFlat(&fc.a, fc.container, fc.name, fc.onDone)
	}
}

func (fc *fig1FlatClient) finish(size int64, err error) {
	if err != nil {
		panic(err)
	}
	elapsed := (fc.a.Now() - fc.start).Seconds()
	fc.per.Add(float64(size) / 1e6 / elapsed)
	*fc.total += size
	if end := fc.a.Now().Seconds(); end > *fc.lastEnd {
		*fc.lastEnd = end
	}
	fc.a.Finish()
}

// fig1Cloud builds a round's cloud on a fresh engine.
func fig1Cloud(cfg Fig1Config, salt int) *azure.Cloud {
	ccfg := azure.Config{Seed: cfg.Seed + uint64(salt)*1_000_003}
	ccfg.Fabric = fabric.DefaultConfig()
	ccfg.Fabric.Degradation = false
	return azure.NewCloud(ccfg)
}

// Anchors compares the reproduction against the published Fig. 1 numbers.
func (r *Fig1Result) Anchors() []Anchor {
	var out []Anchor
	find := func(n int) *Fig1Point {
		for i := range r.Points {
			if r.Points[i].Clients == n {
				return &r.Points[i]
			}
		}
		return nil
	}
	if p := find(1); p != nil {
		out = append(out, Anchor{"download per-client @1 (100 Mbit NIC bound)", "MB/s", 13, p.DownMBps})
	}
	if p := find(32); p != nil {
		out = append(out, Anchor{"download per-client @32 (half of single)", "MB/s", 6.5, p.DownMBps})
	}
	if p := find(128); p != nil {
		out = append(out, Anchor{"download aggregate peak @128", "MB/s", 393.4, p.DownAggMBps})
	}
	if p := find(64); p != nil && p.UpMBps > 0 {
		out = append(out, Anchor{"upload per-client @64", "MB/s", 1.25, p.UpMBps})
	}
	if p := find(192); p != nil && p.UpMBps > 0 {
		out = append(out, Anchor{"upload per-client @192", "MB/s", 0.65, p.UpMBps})
		out = append(out, Anchor{"upload aggregate max @192", "MB/s", 124.25, p.UpAggMBps})
	}
	return out
}
