package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"azureobs/internal/fabric"
	"azureobs/internal/metrics"
	"azureobs/internal/netsim"
	"azureobs/internal/sim"
)

// flatHash runs fig1 with the given knobs and returns the golden-encoded
// byte stream plus its hash, and the anchors derived from the result.
func fig1Encoded(cfg Fig1Config) ([]byte, uint64, []Anchor) {
	res := RunFig1(cfg)
	g := newGoldenHasher()
	encodeResult(g, res)
	return g.bytes(), g.sum(), res.Anchors()
}

// fig1ProcRound is one fig1 round with its clients as spawned processes on
// the blocking client API instead of kernel-driven actors: the same world,
// staging and client ids as runFig1Round, run to completion on its own
// engine.
func fig1ProcRound(cfg Fig1Config, n, run int, upload bool) *fig1Round {
	salt := run
	if upload {
		salt = run + 7919
	}
	r := &fig1Round{cloud: fig1Cloud(cfg, salt), per: &metrics.Summary{}}
	cloud := r.cloud
	cloud.Blob.CreateContainer("bench")
	size := cfg.BlobMB * netsim.MB
	if !upload {
		stager := cloud.NewClient(cloud.Controller.ReadyFleet(1, fabric.Worker, fabric.Small)[0], 1_000_000)
		cloud.Engine.Spawn("stage", func(p *sim.Proc) {
			if err := stager.PutBlob(p, "bench", "shared-1g", size, true); err != nil {
				panic(err)
			}
		})
		cloud.Engine.Run()
	}
	vms := cloud.Controller.ReadyFleet(n, fabric.Worker, fabric.Small)
	for i := 0; i < n; i++ {
		cl := cloud.NewClient(vms[i], i)
		cloud.Engine.Spawn(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
			start := p.Now()
			got, err := size, error(nil)
			if upload {
				err = cl.PutBlob(p, "bench", fmt.Sprintf("upload-%d", i), size, true)
			} else {
				got, err = cl.GetBlob(p, "bench", "shared-1g")
			}
			if err != nil {
				panic(err)
			}
			r.per.Add(float64(got) / 1e6 / (p.Now() - start).Seconds())
			r.total += got
			r.lastEnd = max(r.lastEnd, p.Now().Seconds())
		})
	}
	r.base = cloud.Engine.Now().Seconds()
	cloud.Engine.Run()
	return r
}

// TestFlatEquivalence checks fig1's kernel-driven actor clients against the
// same rounds driven by processes through the blocking adapter
// (sim.Proc.Drive): per-client bandwidth summaries, aggregates, events
// fired and final clocks must be identical for downloads and uploads at
// every concurrency level — a single differing draw or reordered event
// anywhere in the request path shows up here.
func TestFlatEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("flat equivalence sweep is slow")
	}
	cfg := Fig1Config{Proto: Proto{Seed: 42}, BlobMB: 16}
	for _, n := range []int{1, 8, 32} {
		for run := 0; run < 2; run++ {
			for _, upload := range []bool{false, true} {
				flat := runFig1Round(cfg, n, run, upload)
				proc := fig1ProcRound(cfg, n, run, upload)
				fe, pe := flat.cloud.Engine, proc.cloud.Engine
				if fe.EventsFired() != pe.EventsFired() || fe.Now() != pe.Now() {
					t.Fatalf("n=%d run=%d upload=%v: actors fired %d events to %v, processes %d to %v",
						n, run, upload, fe.EventsFired(), fe.Now(), pe.EventsFired(), pe.Now())
				}
				fs, fa := flat.finish()
				ps, pa := proc.finish()
				if *fs != *ps || fa != pa {
					t.Fatalf("n=%d run=%d upload=%v: actors %+v agg %v, processes %+v agg %v",
						n, run, upload, *fs, fa, *ps, pa)
				}
			}
		}
	}
}

// TestFlatGoldenHashes pins fig1's actor clients to the recorded golden
// hashes: they must reproduce the exact seed-solver traces.
func TestFlatGoldenHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("trace goldens are slow")
	}
	runs := map[string]Fig1Config{
		"fig1/seed42": {
			Proto: Proto{Seed: 42, Clients: []int{1, 8, 32, 64, 128, 192}, Runs: 1}, BlobMB: 32},
		"fig1/seed7": {
			Proto: Proto{Seed: 7, Clients: []int{1, 64, 192}, Runs: 2}, BlobMB: 16},
	}
	for name, cfg := range runs {
		_, got, _ := fig1Encoded(cfg)
		if want := goldenTraces[name]; got != want {
			t.Errorf("%s = %#016x, want %#016x (not bit-identical to the seed trace)", name, got, want)
		}
	}
}

// TestFlatNoGoroutineLeak checks that the flat path runs clients without
// spawning a goroutine per client: the process's goroutine count after a
// flat round settles back to (at most) where it started.
func TestFlatNoGoroutineLeak(t *testing.T) {
	cfg := Fig1Config{
		Proto:      Proto{Seed: 42, Clients: []int{64}, Runs: 1},
		BlobMB:     4,
		SkipUpload: true,
	}
	before := runtime.NumGoroutine()
	RunFig1(cfg)
	// Give any stray goroutines a moment to exit before counting.
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("flat fig1 leaked goroutines: %d before, %d after", before, after)
	}
}

// TestFig1AggDegenerate pins the scale-exposed NaN fix: a cell that moves
// no bytes over no elapsed time reports aggregate 0, not 0/0 = NaN, and a
// zero-client sweep produces finite (zero) point fields.
func TestFig1AggDegenerate(t *testing.T) {
	if agg := fig1Agg(0, 0, 0); agg != 0 {
		t.Fatalf("fig1Agg(0,0,0) = %v, want 0", agg)
	}
	if agg := fig1Agg(0, 5, 5); agg != 0 {
		t.Fatalf("fig1Agg with lastEnd==base = %v, want 0", agg)
	}
	if agg := fig1Agg(1_000_000, 3, 1); agg != 0.5 {
		t.Fatalf("fig1Agg(1MB over 2s) = %v, want 0.5", agg)
	}
	cfg := Fig1Config{
		Proto:      Proto{Seed: 42, Clients: []int{0}, Runs: 1},
		BlobMB:     4,
		SkipUpload: true,
	}
	res := RunFig1(cfg)
	if len(res.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(res.Points))
	}
	p := res.Points[0]
	for _, v := range []float64{p.DownMBps, p.DownAggMBps, p.UpMBps, p.UpAggMBps, p.DownMBpsStddev} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("zero-client point has non-finite field: %+v", p)
		}
	}
}
