package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// The worker pool must be invisible to simulation semantics: these tests
// drive the lifecycle edges (panic, daemon, Stop) with reuse active
// and assert that accounting — especially Drained leak detection — behaves
// exactly as it did when every process owned a fresh goroutine.

func TestWorkerReusedAcrossSequentialSpawns(t *testing.T) {
	e := NewEngine()
	const n = 100
	ran := 0
	e.Spawn("driver", func(p *Proc) {
		// Children run strictly one after another, so a single worker must
		// serve them all.
		for i := 0; i < n; i++ {
			e.Spawn("child", func(p *Proc) { ran++ })
			p.Yield()
		}
	})
	e.Run()
	if ran != n {
		t.Fatalf("ran %d children, want %d", ran, n)
	}
	if got := e.ProcsSpawned(); got != n+1 {
		t.Fatalf("ProcsSpawned = %d, want %d", got, n+1)
	}
	// Driver and the first child overlap (driver is suspended in Yield while
	// children run), so two workers suffice for n+1 processes.
	if got := e.WorkersCreated(); got > 2 {
		t.Fatalf("WorkersCreated = %d, want ≤ 2 for sequential spawns", got)
	}
	if got := e.WorkersReused(); got < n-2 {
		t.Fatalf("WorkersReused = %d, want ≥ %d", got, n-2)
	}
	if peak := e.WorkersPeak(); peak > 2 {
		t.Fatalf("WorkersPeak = %d, want ≤ 2", peak)
	}
	if !e.Drained() {
		t.Fatal("engine not drained")
	}
}

func TestPanicUnwindRetiresWorkerAndPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("warm", func(p *Proc) {})
	e.Run()
	e.Spawn("bomb", func(p *Proc) { panic("boom") })
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("user panic did not propagate out of Run")
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, "boom") || !strings.Contains(s, "bomb") {
				t.Fatalf("panic %v does not carry payload and process name", r)
			}
		}()
		e.Run()
	}()
	if live := e.workersLive; live != 0 {
		t.Fatalf("workersLive = %d after panic unwind, want 0", live)
	}
}

func TestDaemonFinishParksWorker(t *testing.T) {
	e := NewEngine()
	daemonRan, childRan := false, false
	e.SpawnDaemon("bg", func(p *Proc) {
		p.Sleep(time.Second)
		daemonRan = true
	})
	e.Spawn("fg", func(p *Proc) {
		p.Sleep(1500 * time.Millisecond)
		// The daemon finished at 1s and parked its worker; this child must
		// reuse it rather than grow the pool.
		e.Spawn("child", func(p *Proc) { childRan = true })
		p.Sleep(time.Second)
	})
	e.Run()
	if !daemonRan || !childRan {
		t.Fatalf("daemonRan=%v childRan=%v", daemonRan, childRan)
	}
	if !e.Drained() {
		t.Fatal("engine not drained — daemon finish must not leak liveness")
	}
	if got := e.WorkersCreated(); got != 2 {
		t.Fatalf("WorkersCreated = %d, want 2 (daemon's worker reused for child)", got)
	}
	if got := e.WorkersReused(); got != 1 {
		t.Fatalf("WorkersReused = %d, want 1", got)
	}
}

func TestSpawnAfterStop(t *testing.T) {
	e := NewEngine()
	e.Spawn("first", func(p *Proc) {
		p.Sleep(time.Second)
		e.Stop()
	})
	e.Run()
	// Now spawn with the engine stopped between runs; the next Run must
	// rebuild the (drained) worker pool and run the process normally.
	ran := false
	e.Spawn("second", func(p *Proc) { ran = true })
	if e.Drained() {
		t.Fatal("Drained must be false while second is pending")
	}
	e.Run()
	if !ran || !e.Drained() {
		t.Fatalf("ran=%v drained=%v after resumed run", ran, e.Drained())
	}
}

func TestDrainedLeakDetectionWithWorkerPool(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	e.Spawn("leaker", func(p *Proc) { q.Get(p) }) // nobody will ever Put
	e.Spawn("fine", func(p *Proc) { p.Sleep(time.Second) })
	e.Run()
	if e.Drained() {
		t.Fatal("Drained reported true with a process parked forever")
	}
	if got := e.LiveProcs(); got != 1 {
		t.Fatalf("LiveProcs = %d, want 1 leaked process", got)
	}
}

func TestRunExitReleasesIdleWorkers(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.Spawn("p", func(p *Proc) { p.Sleep(time.Duration(i) * time.Millisecond) })
	}
	before := runtime.NumGoroutine()
	e.Run()
	if live := e.workersLive; live != 0 {
		t.Fatalf("workersLive = %d after Run, want 0 (idle pool drained)", live)
	}
	// Give the retired goroutines a moment to exit, then check none leaked.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("%d goroutines after Run, %d before — workers leaked", now, before)
	}
}

func TestWakeEventsRecycleAutomatically(t *testing.T) {
	// A process sleeping in a loop must reuse one wake Event from the pool
	// rather than minting one per sleep.
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	e.Run()
	// Start event + wake event is all this workload ever needed live at
	// once; the free list holds what was retired, far fewer than 50.
	if free := e.FreeEvents(); free > 2 {
		t.Fatalf("free list holds %d events, want ≤ 2 — wake events not reused in place", free)
	}
}
