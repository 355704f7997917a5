package station

import (
	"math"
	"testing"
	"time"

	"azureobs/internal/sim"
	"azureobs/internal/simrand"
)

// visit is one blocking visit: the process sleeps the service time
// BeginVisit draws, then ends the visit.
func visit(p *sim.Proc, st *Station, extra time.Duration) time.Duration {
	d := st.BeginVisit(extra)
	p.Sleep(d)
	st.EndVisit()
	return d
}

func TestMeanLatencyLaw(t *testing.T) {
	st := New(Config{S0: 10 * time.Millisecond, N0: 8, Gamma: 2}, simrand.New(1))
	// n=1: 10ms·(1+1/64) ≈ 10.16ms; n=8: 20ms; n=16: 50ms.
	if got := st.MeanLatency(8); got != 20*time.Millisecond {
		t.Fatalf("MeanLatency(8) = %v, want 20ms", got)
	}
	if got := st.MeanLatency(16); got != 50*time.Millisecond {
		t.Fatalf("MeanLatency(16) = %v, want 50ms", got)
	}
	if got := st.MeanLatency(0); got != st.MeanLatency(1) {
		t.Fatal("MeanLatency clamps n to 1")
	}
}

func TestAggregatePeaksAtN0ForGamma2(t *testing.T) {
	st := New(Config{S0: 10 * time.Millisecond, N0: 64, Gamma: 2}, simrand.New(1))
	agg := func(n int) float64 { return float64(n) / st.MeanLatency(n).Seconds() }
	peak := agg(64)
	for _, n := range []int{1, 8, 16, 32, 128, 192} {
		if agg(n) > peak {
			t.Fatalf("aggregate at n=%d (%f) exceeds peak at n0=64 (%f)", n, agg(n), peak)
		}
	}
	// Strictly rising before and falling after.
	if agg(32) >= peak || agg(128) >= peak {
		t.Fatal("aggregate not peaked at n0")
	}
}

func TestVisitSelfAttaches(t *testing.T) {
	eng := sim.NewEngine()
	st := New(Config{S0: 100 * time.Millisecond, N0: 8, Gamma: 2}, simrand.New(1))
	var seen []int
	for i := 0; i < 4; i++ {
		eng.Spawn("c", func(p *sim.Proc) {
			p.Yield() // let all four start
			visit(p, st, 0)
			seen = append(seen, st.Attached())
		})
	}
	maxAttached := 0
	eng.Schedule(50*time.Millisecond, func() {
		maxAttached = st.Attached()
	})
	eng.Run()
	if maxAttached != 4 {
		t.Fatalf("attached mid-visit = %d, want 4", maxAttached)
	}
	if st.Attached() != 0 {
		t.Fatalf("attached after drain = %d, want 0", st.Attached())
	}
	if st.Ops() != 4 {
		t.Fatalf("ops = %d, want 4", st.Ops())
	}
}

func TestVisitLatencyScalesWithConcurrency(t *testing.T) {
	// 64 closed-loop clients against an n0=8 station must see much higher
	// per-op latency than a single client.
	measure := func(clients int) float64 {
		eng := sim.NewEngine()
		st := New(Config{S0: 10 * time.Millisecond, N0: 8, Gamma: 2}, simrand.New(1))
		var total time.Duration
		var ops int
		for i := 0; i < clients; i++ {
			eng.Spawn("c", func(p *sim.Proc) {
				for j := 0; j < 50; j++ {
					total += visit(p, st, 0)
					ops++
				}
			})
		}
		eng.Run()
		return (total / time.Duration(ops)).Seconds()
	}
	lone := measure(1)
	crowd := measure(64)
	if crowd < 10*lone {
		t.Fatalf("latency at 64 clients (%f) not ≫ at 1 (%f)", crowd, lone)
	}
}

func TestVisitExtraAdds(t *testing.T) {
	eng := sim.NewEngine()
	st := New(Config{S0: 10 * time.Millisecond, N0: 1000, Gamma: 1}, simrand.New(1))
	var d time.Duration
	eng.Spawn("c", func(p *sim.Proc) {
		d = visit(p, st, 500*time.Millisecond)
	})
	eng.Run()
	if d < 500*time.Millisecond {
		t.Fatalf("visit with extra = %v, want ≥ 500ms", d)
	}
}

func TestJitterCV(t *testing.T) {
	eng := sim.NewEngine()
	st := New(Config{S0: 100 * time.Millisecond, N0: 1000, Gamma: 1, CV: 0.3}, simrand.New(7))
	var sum, sum2 float64
	n := 5000
	eng.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			v := visit(p, st, 0).Seconds()
			sum += v
			sum2 += v * v
		}
	})
	eng.Run()
	mean := sum / float64(n)
	cv := math.Sqrt(sum2/float64(n)-mean*mean) / mean
	if math.Abs(mean-0.1001) > 0.005 {
		t.Fatalf("mean latency = %f, want ~0.1", mean)
	}
	if math.Abs(cv-0.3) > 0.05 {
		t.Fatalf("cv = %f, want ~0.3", cv)
	}
}

func TestAttachDetachExplicit(t *testing.T) {
	st := New(Config{S0: time.Millisecond, N0: 8, Gamma: 2}, simrand.New(1))
	st.Attach()
	st.Attach()
	if st.Attached() != 2 {
		t.Fatalf("attached = %d", st.Attached())
	}
	st.Detach()
	st.Detach()
	defer func() {
		if recover() == nil {
			t.Fatal("detach below zero did not panic")
		}
	}()
	st.Detach()
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	New(Config{S0: 0, N0: 8, Gamma: 2}, simrand.New(1))
}

// TestSampleLatencyMatchesLogNormalMeanCV: the hoisted jitter parameters
// draw bit-identically to building the distribution afresh each visit, as
// the concurrency rises, falls and repeats, and a draw allocates nothing.
func TestSampleLatencyMatchesLogNormalMeanCV(t *testing.T) {
	var walk []int
	for n := 0; n <= 150; n++ {
		walk = append(walk, n, n)
	}
	for n := 150; n >= 0; n -= 3 {
		walk = append(walk, n)
	}
	for _, cv := range []float64{0.08, 0.25, 0.5} {
		st := New(Config{S0: 40 * time.Millisecond, N0: 64, Gamma: 2, CV: cv}, simrand.New(11))
		ref := simrand.New(11)
		for i, n := range walk {
			for st.Attached() < n {
				st.Attach()
			}
			for st.Attached() > n {
				st.Detach()
			}
			got := st.SampleLatency()
			want := simrand.Duration(simrand.LogNormalMeanCV(st.MeanLatency(n).Seconds(), cv), ref)
			if got != want {
				t.Fatalf("cv %v, draw %d at concurrency %d: %v, want %v", cv, i, n, got, want)
			}
		}
		if a := testing.AllocsPerRun(100, func() { st.SampleLatency() }); a != 0 {
			t.Fatalf("cv %v: SampleLatency allocates %v objects per draw", cv, a)
		}
	}
}
