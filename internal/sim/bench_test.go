package sim

import (
	"testing"
	"time"
)

// Kernel hot-path microbenchmarks. The same four workloads are surfaced at
// fixed scale by `azbench -run simbench` (cmd/azbench/simbench.go), which
// compares against embedded pre-overhaul baselines; these go-bench variants
// are for interactive profiling work:
//
//	go test -run xx -bench BenchmarkCancelChurn -cpuprofile cpu.out ./internal/sim
//
// churnTick spreads replacement events pseudo-randomly (Fibonacci hashing)
// over a window ahead of the clock so the heap sees realistic disorder.
const benchTick = time.Microsecond

func benchAt(e *Engine, i, pop int) time.Duration {
	return e.Now() + benchTick + time.Duration(uint32(i)*2654435761%uint32(pop))*benchTick
}

// uncheckedEngines turns off, for the rest of the benchmark, the invariant
// checking TestMain enables for every engine: benchmarks time the path
// production runs, not the per-event checks.
func uncheckedEngines(b *testing.B) {
	SetDefaultInvariants(false)
	b.Cleanup(func() { SetDefaultInvariants(true) })
}

// BenchmarkCancelChurn is a per-flow-event churn pattern (netsim's remove
// path before a fabric held a single completion event): per fired
// completion, one flow retires its pending completion (CancelRecycle +
// Schedule of the successor) and the reallocated bandwidth moves seven
// others — the same composite the azbench cancel-churn suite runs.
func BenchmarkCancelChurn(b *testing.B) {
	uncheckedEngines(b)
	const pop = 1024
	e := NewEngine()
	evs := make([]*Event, pop)
	var refill []int
	fns := make([]func(), pop)
	for s := range fns {
		s := s
		fns[s] = func() {
			e.Recycle(evs[s])
			evs[s] = nil
			refill = append(refill, s)
		}
	}
	for s := range evs {
		evs[s] = e.Schedule(benchAt(e, s, pop), fns[s])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 8; k++ {
			s := (i*8 + k) % pop
			at := benchAt(e, i+k, pop)
			switch {
			case evs[s] == nil:
				evs[s] = e.Schedule(at, fns[s])
			case k == 0:
				e.CancelRecycle(evs[s])
				evs[s] = e.Schedule(at, fns[s])
			default:
				e.Reschedule(evs[s], at)
			}
		}
		e.Step()
		for _, s := range refill {
			evs[s] = e.Schedule(benchAt(e, i+s, pop), fns[s])
		}
		refill = refill[:0]
	}
}

// BenchmarkRescheduleChurn is the hot move path: a still-pending completion
// sifts in place to a new time.
func BenchmarkRescheduleChurn(b *testing.B) {
	uncheckedEngines(b)
	const pop = 1024
	e := NewEngine()
	evs := make([]*Event, pop)
	var refill []int
	fns := make([]func(), pop)
	for s := range fns {
		s := s
		fns[s] = func() {
			e.Recycle(evs[s])
			refill = append(refill, s)
		}
	}
	for s := range evs {
		evs[s] = e.Schedule(benchAt(e, s, pop), fns[s])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 8; k++ {
			s := (i*8 + k) % pop
			if evs[s] != nil {
				e.Reschedule(evs[s], benchAt(e, i+k, pop))
			} else {
				evs[s] = e.Schedule(benchAt(e, i+k, pop), fns[s])
			}
		}
		e.Step()
		for _, s := range refill {
			evs[s] = e.Schedule(benchAt(e, i+s, pop), fns[s])
		}
		refill = refill[:0]
	}
}

func benchChild(p *Proc) {}

// BenchmarkSpawnChurn is the closed-loop client pattern: one short-lived
// process per request. With worker reuse the steady state should allocate
// only the Proc itself.
func BenchmarkSpawnChurn(b *testing.B) {
	uncheckedEngines(b)
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	e.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i += 64 {
			n := 64
			if rem := b.N - i; rem < n {
				n = rem
			}
			for j := 0; j < n; j++ {
				e.Spawn("child", benchChild)
			}
			p.Yield()
		}
	})
	e.Run()
}

// BenchmarkSleepLadder exercises the wake-event fast path: a fixed cohort of
// processes sleeping staggered durations.
func BenchmarkSleepLadder(b *testing.B) {
	uncheckedEngines(b)
	const procs = 64
	e := NewEngine()
	total := b.N
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for i := 0; i < procs; i++ {
		share := total / procs
		if i < total%procs {
			share++
		}
		e.Spawn("sleeper", func(p *Proc) {
			for k := 0; k < share; k++ {
				p.Sleep(time.Duration((i+k)%7+1) * time.Millisecond)
				done++
			}
		})
	}
	e.Run()
	if done != total {
		b.Fatalf("done = %d, want %d", done, total)
	}
}
