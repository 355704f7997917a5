package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("now = %v, want 3s", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of schedule order: %v", got)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.Schedule(5*time.Second, func() {
		e.After(2*time.Second, func() { at = e.Now() })
	})
	e.Run()
	if at != 7*time.Second {
		t.Fatalf("After fired at %v, want 7s", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(0, func() {})
	})
	e.Run()
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel is a no-op
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestCancelFromEarlierEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(2*time.Second, func() { fired = true })
	e.Schedule(time.Second, func() { e.Cancel(ev) })
	e.Run()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3 (deadline-inclusive)", len(fired))
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("now = %v, want 3s", e.Now())
	}
	e.RunUntil(10 * time.Second)
	if len(fired) != 5 {
		t.Fatalf("fired %d events after second RunUntil, want 5", len(fired))
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("now advanced to %v, want deadline 10s", e.Now())
	}
}

// TestRunWindowHalfOpen pins the window: an event at exactly the limit
// belongs to the next window, the clock stays at the last event fired, and
// RunWindow reports the next live event (skipping a canceled one) until the
// calendar is empty.
func TestRunWindowHalfOpen(t *testing.T) {
	const w = 10 * time.Millisecond
	e := NewEngine()
	var fired []time.Duration
	note := func() { fired = append(fired, e.Now()) }
	e.Schedule(w-time.Nanosecond, note)
	e.Schedule(w, note)
	e.Cancel(e.Schedule(w+time.Nanosecond, note))
	e.Schedule(3*w, note)

	next, ok := e.RunWindow(w)
	if !ok || next != w || len(fired) != 1 || e.Now() != w-time.Nanosecond {
		t.Fatalf("first window: next=%v ok=%v fired=%v now=%v", next, ok, fired, e.Now())
	}
	next, ok = e.RunWindow(2 * w)
	if !ok || next != 3*w || len(fired) != 2 || e.Now() != w {
		t.Fatalf("second window: next=%v ok=%v fired=%v now=%v", next, ok, fired, e.Now())
	}
	if next, ok = e.RunWindow(4 * w); ok || len(fired) != 3 || e.Now() != 3*w {
		t.Fatalf("last window: next=%v ok=%v fired=%v now=%v", next, ok, fired, e.Now())
	}
}

// TestRunWindowStuckWorldEnds: a live process with no event left to wake it
// ends the windowed run, as it ends Run, and leaves the engine undrained.
func TestRunWindowStuckWorldEnds(t *testing.T) {
	e := NewEngine()
	var sig Signal
	e.Spawn("parked", func(p *Proc) { sig.Wait(p) }) // never fired
	e.Spawn("fine", func(p *Proc) { p.Sleep(time.Millisecond) })
	limit := time.Duration(0)
	for {
		next, ok := e.RunWindow(limit)
		if !ok {
			break
		}
		limit = next + time.Microsecond
	}
	if e.Drained() {
		t.Fatal("engine reports drained with a parked process leaked")
	}
	if e.Now() != time.Millisecond {
		t.Fatalf("clock stopped at %v, want 1ms", e.Now())
	}
}

// TestRunWindowKeepsWorkersUntilDone: parked workers survive window
// boundaries, so a process-driven world does not rebuild its pool every
// window, and the window that ends the run retires them.
func TestRunWindowKeepsWorkersUntilDone(t *testing.T) {
	e := NewEngine()
	e.Spawn("driver", func(p *Proc) {
		for s := 0; s < 50; s++ {
			e.Spawn("step", func(*Proc) {})
			p.Sleep(time.Millisecond) // one window boundary per step
		}
	})
	windows := 0
	for limit := time.Millisecond; ; limit += time.Millisecond {
		windows++
		if _, ok := e.RunWindow(limit); !ok {
			break
		}
	}
	if windows < 50 {
		t.Fatalf("ran %d windows, want at least 50", windows)
	}
	if got := e.WorkersCreated(); got > 2 {
		t.Fatalf("created %d workers across %d windows; pool not reused", got, windows)
	}
	if e.workersLive != 0 {
		t.Fatalf("workersLive = %d after the last window, want 0", e.workersLive)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {
			count++
			if count == 4 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 4 {
		t.Fatalf("ran %d events, want 4 (stopped)", count)
	}
	e.Run() // resumes from where it stopped
	if count != 10 {
		t.Fatalf("ran %d events after resume, want 10", count)
	}
}

func TestDrained(t *testing.T) {
	e := NewEngine()
	if !e.Drained() {
		t.Fatal("fresh engine not drained")
	}
	ev := e.Schedule(time.Second, func() {})
	if e.Drained() {
		t.Fatal("engine with pending event reported drained")
	}
	e.Cancel(ev)
	if !e.Drained() {
		t.Fatal("engine with only canceled events reported not drained")
	}
}

func TestEventsFired(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.Run()
	if e.EventsFired() != 7 {
		t.Fatalf("EventsFired = %d, want 7", e.EventsFired())
	}
}

// Property: for any set of schedule times, events fire in nondecreasing time
// order, with ties in insertion order.
func TestPropertyEventOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 400 {
			raw = raw[:400]
		}
		e := NewEngine()
		type firing struct {
			at  time.Duration
			seq int
		}
		var fired []firing
		for i, r := range raw {
			i, d := i, time.Duration(r)*time.Millisecond
			e.Schedule(d, func() { fired = append(fired, firing{e.Now(), i}) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(a, b int) bool {
			if fired[a].at != fired[b].at {
				return fired[a].at < fired[b].at
			}
			return fired[a].seq < fired[b].seq
		}) {
			return false
		}
		// Also must be exactly sorted as executed (stable order).
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving cancellations never disturbs ordering of survivors,
// and canceled events never fire.
func TestPropertyCancelSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		e := NewEngine()
		n := 50 + rng.Intn(100)
		events := make([]*Event, n)
		firedIdx := map[int]bool{}
		for i := 0; i < n; i++ {
			i := i
			events[i] = e.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, func() {
				firedIdx[i] = true
			})
		}
		canceled := map[int]bool{}
		for i := 0; i < n/3; i++ {
			j := rng.Intn(n)
			e.Cancel(events[j])
			canceled[j] = true
		}
		e.Run()
		for i := 0; i < n; i++ {
			if canceled[i] && firedIdx[i] {
				t.Fatalf("trial %d: canceled event %d fired", trial, i)
			}
			if !canceled[i] && !firedIdx[i] {
				t.Fatalf("trial %d: live event %d never fired", trial, i)
			}
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []time.Duration {
		e := NewEngine()
		rng := rand.New(rand.NewSource(7))
		var trace []time.Duration
		var rec func()
		rec = func() {
			trace = append(trace, e.Now())
			if len(trace) < 200 {
				e.After(time.Duration(rng.Intn(50)+1)*time.Millisecond, rec)
			}
		}
		e.Schedule(0, rec)
		e.Schedule(0, rec)
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
