package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"azureobs/internal/sim"
)

// The ladder and gate tests drive the shared routines with fake cells: each
// rung's hash and wall are fixed by the test, so nothing here is timed.

func fakeRung(hash string, wallMS float64) rung {
	return rung{hash: hash, acc: &sim.DomainAccum{}, wall: time.Duration(wallMS * 1e6)}
}

func TestLadderDivergingHashFails(t *testing.T) {
	dir := t.TempDir()
	same := newLadderBench("test", "test", 1, true, "")
	same.ladder("cell", []int{1, 2, 4}, func(d int) rung { return fakeRung("aaaa", 100) })
	if code := same.write(dir + "/same.json"); code != 0 {
		t.Fatalf("uniform ladder exited %d, want 0", code)
	}

	diverged := newLadderBench("test", "test", 1, true, "")
	diverged.ladder("cell", []int{1, 2, 4}, func(d int) rung {
		if d == 2 {
			return fakeRung("bbbb", 100)
		}
		return fakeRung("aaaa", 100)
	})
	if code := diverged.write(dir + "/diverged.json"); code != 1 {
		t.Fatalf("ladder with a diverging rung exited %d, want 1", code)
	}

	// A later call for the same suite (the windowed scale-cell row) is held
	// to the suite's first hash, not to its own.
	later := newLadderBench("test", "test", 1, true, "")
	later.ladder("cell", []int{1}, func(d int) rung { return fakeRung("aaaa", 100) })
	later.ladder("cell", []int{2}, func(d int) rung { return fakeRung("bbbb", 100) })
	if !later.fail {
		t.Fatal("a second call with another hash for the same suite passed")
	}
}

func TestLadderSpeedupNullOnOneCPU(t *testing.T) {
	for _, cpus := range []int{1, 4} {
		b := newLadderBench("test", "test", 1, true, "")
		b.rep.NumCPU = cpus
		b.ladder("cell", []int{1, 2}, func(d int) rung { return fakeRung("aaaa", 100/float64(d)) })
		pt := b.rep.Points[1]
		buf, err := json.Marshal(pt)
		if err != nil {
			t.Fatal(err)
		}
		if cpus == 1 {
			if pt.Speedup != nil || pt.Efficiency != nil ||
				!strings.Contains(string(buf), `"speedup_vs_one":null`) ||
				!strings.Contains(string(buf), `"efficiency":null`) {
				t.Fatalf("num_cpu 1: point %s, want null speedup and efficiency", buf)
			}
			continue
		}
		if pt.Speedup == nil || *pt.Speedup != 2 || pt.Efficiency == nil || *pt.Efficiency != 1 {
			t.Fatalf("num_cpu %d: point %s, want speedup 2 and efficiency 1", cpus, buf)
		}
	}
}

// writeBaseline saves a ladder report with the given points for a gate to
// read, and returns its path.
func writeBaseline(t *testing.T, pts ...ladderPoint) string {
	t.Helper()
	buf, err := json.Marshal(ladderReport{Suite: "test", Seed: 7, Quick: true, Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/BENCH_test.json"
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLadderGate(t *testing.T) {
	base := writeBaseline(t,
		ladderPoint{Suite: "other", Domains: 1, WallMS: 10, TraceHash: "ffff"},
		ladderPoint{Suite: "cell", Domains: 1, WallMS: 100, TraceHash: "aaaa"},
		ladderPoint{Suite: "cell", Domains: 2, WallMS: 60, TraceHash: "aaaa"},
		ladderPoint{Suite: "cell", Domains: 2, WindowSec: 1, WallMS: 70, TraceHash: "aaaa"},
	)
	// gateWith runs the gate over five fake repetitions with these walls.
	gateWith := func(path, hash string, walls ...float64) int {
		i := 0
		return ladderGate("test", path, "cell", func(seed uint64, quick bool) rung {
			if seed != 7 || !quick {
				t.Fatalf("gate ran at seed %d quick %v, want the baseline's 7 and true", seed, quick)
			}
			w := walls[i%len(walls)]
			i++
			return fakeRung(hash, w)
		})
	}
	if code := gateWith(base, "aaaa", 109); code != 0 {
		t.Errorf("ratio 1.09 exited %d, want 0", code)
	}
	if code := gateWith(base, "aaaa", 111); code != 1 {
		t.Errorf("ratio 1.11 exited %d, want 1", code)
	}
	// The fastest of the five repetitions is what the gate compares.
	if code := gateWith(base, "aaaa", 150, 130, 109, 140, 120); code != 0 {
		t.Errorf("best-of-five 1.09 exited %d, want 0", code)
	}
	if code := gateWith(base, "bbbb", 50); code != 1 {
		t.Errorf("drifted hash exited %d, want 1", code)
	}
	noRow := writeBaseline(t,
		ladderPoint{Suite: "cell", Domains: 2, WallMS: 60, TraceHash: "aaaa"},
		ladderPoint{Suite: "other", Domains: 1, WallMS: 10, TraceHash: "aaaa"},
	)
	if code := gateWith(noRow, "aaaa", 50); code != 1 {
		t.Errorf("baseline without a domains=1 row exited %d, want 1", code)
	}
	if code := gateWith(t.TempDir()+"/missing.json", "aaaa", 50); code != 1 {
		t.Errorf("missing baseline exited %d, want 1", code)
	}
}
