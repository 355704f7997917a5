package netsim

import (
	"cmp"
	"slices"
	"strings"
	"testing"
	"time"

	"azureobs/internal/sim"
)

// runBounded steps the engine at most maxEvents times, failing the test if
// the calendar is still live afterwards. The ping-pong regressions below
// previously looped forever at a single instant, so the tests must not rely
// on Run() returning.
func runBounded(t *testing.T, eng *sim.Engine, maxEvents int) {
	t.Helper()
	for i := 0; i < maxEvents; i++ {
		if !eng.Step() {
			return
		}
	}
	t.Fatalf("engine still live after %d events at t=%v (zero-duration ping-pong?)", maxEvents, eng.Now())
}

// Regression: a completion prediction that truncates to a sub-nanosecond
// residual used to reschedule at the current instant forever. 1001 bytes at
// 1.7 GB/s predicts completion at 588 ns; settling there leaves 1.4 bytes
// (> the 0.5-byte done threshold), and the fresh prediction of +0.82 ns
// truncated back to the same instant — an infinite zero-duration loop.
func TestSubNanosecondResidualTerminates(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	l := fab.NewLink("fast", Bandwidth(1.7)*GBps)
	fl := fab.StartFlow(1001, l)
	runBounded(t, eng, 100)
	if fab.ActiveFlows() != 0 {
		t.Fatalf("flow never completed: remaining=%v rate=%v", fl.Remaining(), fl.Rate())
	}
	// 1001 bytes / 1.7e9 B/s = 588.8 ns; the 1 ns progress bump may land at
	// 589 ns but must not drift beyond the next nanosecond.
	if got := eng.Now(); got < 588 || got > 589 {
		t.Fatalf("completed at %v, want 588-589ns", got)
	}
}

// Regression: a same-instant rate change used to ping-pong. Flows A (1000 B)
// and B (2001 B) share a 2 GB/s link at 1 GB/s each; A completes at exactly
// 1000 ns and B's rate doubles. B's refreshed prediction lands at 1500 ns
// with 1 byte still outstanding there, and the +0.5 ns residual truncated to
// a zero-duration event at 1500 ns, rescheduling itself forever.
func TestSameInstantRateChangeTerminates(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	l := fab.NewLink("shared", 2*GBps)
	fab.StartFlow(1000, l)
	fb := fab.StartFlow(2001, l)
	var doneAt time.Duration = -1
	eng.Spawn("waitB", func(p *sim.Proc) {
		fb.done.Wait(p)
		doneAt = p.Now()
	})
	runBounded(t, eng, 100)
	if fab.ActiveFlows() != 0 {
		t.Fatalf("flows never drained: %d active", fab.ActiveFlows())
	}
	if doneAt != 1501 {
		t.Fatalf("flow B completed at %v, want 1501ns (1500ns prediction + 1ns residual bump)", doneAt)
	}
}

// A capacity curve that dips to zero or below must fail loudly at allocation
// time, naming the link — previously every flow crossing it just stalled
// forever with no diagnostic.
func TestCapacityFnNonPositivePanics(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	l := fab.NewLink("frontend-42", 10*MBps)
	l.SetCapacityFn(func(n int) Bandwidth {
		if n >= 2 {
			return 0 // broken calibration curve
		}
		return 10 * MBps
	})
	fab.StartFlow(10*MB, l) // n=1: fine
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("zero effective capacity did not panic")
		}
		msg, ok := rec.(string)
		if !ok || !strings.Contains(msg, "frontend-42") {
			t.Fatalf("panic %v does not name the offending link", rec)
		}
	}()
	fab.StartFlow(10*MB, l) // n=2: capacity 0 → must panic
}

// A negative capacity curve is just as fatal as a zero one.
func TestCapacityFnNegativePanics(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	l := fab.NewLink("neg", 10*MBps)
	l.SetCapacityFn(func(n int) Bandwidth { return Bandwidth(-float64(n)) * MBps })
	defer func() {
		if recover() == nil {
			t.Fatal("negative effective capacity did not panic")
		}
	}()
	fab.StartFlow(MB, l)
}

// Completion predictions survive churn that does not move their firing
// time: a flow on a private link must keep its prediction's sequence number,
// and the fabric its completion event (same *sim.Event at the same key),
// while unrelated flows come and go.
func TestUnrelatedChurnKeepsCompletionEvent(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	private := fab.NewLink("private", 10*MBps)
	other := fab.NewLink("other", 10*MBps)
	fl := fab.StartFlow(100*MB, private)
	ev, seq := fab.next, fl.st().seq
	if ev == nil || fl.st().at < 0 {
		t.Fatal("no completion event scheduled")
	}
	tmp := fab.StartFlow(50*MB, other)
	fab.Abandon(tmp)
	if fl.st().seq != seq || fab.next != ev || ev.Seq() != seq {
		t.Fatal("churn on a disjoint component replaced an unchanged flow's completion prediction")
	}
	if got := ev.Time(); got != 10*time.Second || fl.st().at != got {
		t.Fatalf("completion time %v (predicted %v), want 10s", got, fl.st().at)
	}
	eng.Run()
	if fab.ActiveFlows() != 0 {
		t.Fatalf("flows left: %d", fab.ActiveFlows())
	}
}

// The solver invariant flags an allocation that overloads a link or goes
// negative, on private links as well as shared ones, so the private-link
// shortcut is checked wherever invariants run.
func TestSolveInvariantCatchesOverload(t *testing.T) {
	for _, tc := range []struct {
		name string
		flow int // 0 and 1 share a link, 2 crosses one alone
		rate float64
		want string
	}{
		{"shared", 0, 8 * float64(MBps), `link "shared" carries`},
		{"private", 2, 20 * float64(MBps), `private link "solo"`},
		{"negative", 1, -1, "negative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			fab := NewFabric(eng)
			shared := fab.NewLink("shared", 10*MBps)
			flows := []*Flow{
				fab.StartFlow(10*MB, shared),
				fab.StartFlow(10*MB, shared),
				fab.StartFlow(10*MB, fab.NewLink("solo", 10*MBps)),
			}
			fl := flows[tc.flow]
			fl.st().rate = tc.rate
			// Mark the flow's component, as the solve that assigned the
			// rate would have, and check it.
			fab.SameComponent(fl, fl)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want an invariant violation naming %q", msg, tc.want)
				}
			}()
			fab.checkSolve(eng.Invariants())
		})
	}
}

// However many flows are in flight, the fabric keeps exactly one event in
// the calendar, and flows predicted to finish at the same instant finish in
// the order their predictions were made (their sequence numbers), not in
// the slot order that swap-delete reshuffles as flows leave.
func TestOneCalendarEntryPerFabric(t *testing.T) {
	const n = 16
	eng := sim.NewEngine()
	fab := NewFabric(eng)
	shared := fab.NewLink("shared", 10*MBps)
	flows := make([]*Flow, n)
	for i := range flows {
		// Half the flows cross one shared link (1.25 MB/s each once all
		// eight are in), the other half a private link each; every size is
		// chosen so all finish at 8 s.
		if i%2 == 0 {
			flows[i] = fab.StartFlow(10*MB, shared)
		} else {
			flows[i] = fab.StartFlow(80*MB, fab.NewLink("nic", 10*MBps))
		}
		if got := eng.Pending(); got != 1 {
			t.Fatalf("%d flows in flight, %d events pending, want 1", i+1, got)
		}
	}
	seqs := make([]uint64, n)
	for i, fl := range flows {
		if fl.st().at != 8*time.Second {
			t.Fatalf("flow %d predicted at %v, want 8s", i, fl.st().at)
		}
		seqs[i] = fl.st().seq
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(seqs[a], seqs[b]) })
	for k, want := range order {
		if !eng.Step() {
			t.Fatalf("calendar empty after %d completions", k)
		}
		if eng.Now() != 8*time.Second {
			t.Fatalf("completion %d at %v, want 8s", k, eng.Now())
		}
		if !flows[want].completed {
			t.Fatalf("completion %d: flow %d (lowest remaining seq) did not finish", k, want)
		}
		for _, j := range order[k+1:] {
			if flows[j].completed {
				t.Fatalf("completion %d: flow %d finished ahead of flow %d", k, j, want)
			}
		}
		if left, got := n-k-1, eng.Pending(); (left > 0) != (got == 1) || got > 1 {
			t.Fatalf("%d flows in flight, %d events pending", left, got)
		}
	}
	if eng.Step() {
		t.Fatal("an event outlived the last flow")
	}
}

// The calendar invariant flags a fabric event that has left the minimum
// (at, seq) over the flows' predictions, is armed for the wrong flow, or is
// missing while a prediction stands.
func TestNextInvariantCatchesMisplacedEvent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(fab *Fabric, eng *sim.Engine, other *Flow)
		want    string
	}{
		{"moved", func(fab *Fabric, eng *sim.Engine, _ *Flow) {
			eng.RescheduleSeq(fab.next, fab.next.Time()+1, fab.next.Seq())
		}, "earliest prediction"},
		{"wrong flow", func(fab *Fabric, _ *sim.Engine, other *Flow) {
			fab.nextFlow = other
		}, "earliest prediction"},
		{"missing", func(fab *Fabric, eng *sim.Engine, _ *Flow) {
			eng.CancelRecycle(fab.next)
			fab.next = nil
		}, "no completion event pending"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			fab := NewFabric(eng)
			fab.StartFlow(10*MB, fab.NewLink("fast", 10*MBps))
			other := fab.StartFlow(10*MB, fab.NewLink("slow", 5*MBps))
			tc.corrupt(fab, eng, other)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want an invariant violation naming %q", msg, tc.want)
				}
			}()
			fab.checkNext(eng.Invariants())
		})
	}
}
