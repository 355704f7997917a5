package reqpath

import (
	"math"
	"testing"
	"time"

	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/storerr"
)

// body is a request body under test: the stages between admission and hook
// delivery. It must call done exactly once with the request's outcome.
type body func(c *CtxFlat, done func(error))

// instant adapts a body whose stages take no time.
func instant(f func(c *CtxFlat) error) body {
	return func(c *CtxFlat, done func(error)) { done(f(c)) }
}

// empty is the body with no stages.
var empty = instant(func(*CtxFlat) error { return nil })

// do runs one request on p as a flat machine over CtxFlat: admission
// (conn-fail → request latency → server-busy), then b, then hook
// delivery. It returns the admission fault or b's outcome.
func do(p *sim.Proc, pl *Pipeline, op string, b body) error {
	var c CtxFlat
	var err error
	finish := func(e error) {
		err = e
		c.Finish(e)
	}
	p.Drive(func(a *sim.Actor) {
		c.Begin(pl, op, a)
		sleep, hasSleep, e := c.AdmitPre()
		if e != nil {
			finish(e)
			return
		}
		admitted := func() {
			if e := c.AdmitPost(); e != nil {
				finish(e)
				return
			}
			b(&c, finish)
		}
		if hasSleep {
			c.Sleep(sleep, admitted)
			return
		}
		admitted()
	})
	return err
}

func runOne(t *testing.T, pl *Pipeline, op string, b body) (time.Duration, error) {
	t.Helper()
	eng := sim.NewEngine()
	var d time.Duration
	var err error
	eng.Spawn("req", func(p *sim.Proc) {
		start := p.Now()
		err = do(p, pl, op, b)
		d = p.Now() - start
	})
	eng.Run()
	return d, err
}

func TestAdmissionFaults(t *testing.T) {
	pl := New(simrand.New(1), Config{Service: "t", Faults: FaultConfig{ConnFailProb: 1}})
	_, err := runOne(t, pl, "t.op", empty)
	if !storerr.IsCode(err, storerr.CodeConnection) {
		t.Fatalf("conn fault = %v", err)
	}

	pl = New(simrand.New(1), Config{Service: "t", Faults: FaultConfig{ServerBusyProb: 1}})
	_, err = runOne(t, pl, "t.op", empty)
	if !storerr.IsCode(err, storerr.CodeServerBusy) {
		t.Fatalf("busy fault = %v", err)
	}

	// Conn failure precedes the request latency: the transport never carried
	// the request, so no time elapses.
	pl = New(simrand.New(1), Config{
		Service: "t",
		Faults:  FaultConfig{ConnFailProb: 1},
		Latency: simrand.Const(0.5),
	})
	d, _ := runOne(t, pl, "t.op", empty)
	if d != 0 {
		t.Fatalf("conn fault elapsed %v, want 0", d)
	}
}

func TestBodyStages(t *testing.T) {
	pl := New(simrand.New(1), Config{Service: "t", Faults: FaultConfig{ReadFailProb: 1}})
	_, err := runOne(t, pl, "t.op", instant((*CtxFlat).ReadFault))
	if !storerr.IsCode(err, storerr.CodeTimeout) {
		t.Fatalf("read fault = %v", err)
	}

	pl = New(simrand.New(1), Config{Service: "t", Faults: FaultConfig{CorruptReadProb: 1}})
	_, err = runOne(t, pl, "t.op", instant(func(c *CtxFlat) error { return c.CorruptRead("bad payload") }))
	if !storerr.IsCode(err, storerr.CodeCorruptRead) {
		t.Fatalf("corrupt fault = %v", err)
	}

	pl = New(simrand.New(1), Config{Service: "t", ServerTimeout: 3 * time.Second})
	d, err := runOne(t, pl, "t.op", func(c *CtxFlat, done func(error)) {
		if !c.TimeoutHit(1) {
			done(nil)
			return
		}
		c.Sleep(c.ServerTimeout(), func() { done(c.TimeoutErrf("overloaded")) })
	})
	if !storerr.IsCode(err, storerr.CodeTimeout) {
		t.Fatalf("timeout fault = %v", err)
	}
	if d != 3*time.Second {
		t.Fatalf("timeout burned %v, want the 3s server deadline", d)
	}
}

func TestDisabledStagesDrawNothing(t *testing.T) {
	// Two pipelines over the same seed, one with every probability at the
	// degenerate values (0 and 1): neither degenerate gate may consume a
	// draw, so the latency sequence must match a fault-free pipeline's.
	sample := func(faults FaultConfig) []time.Duration {
		pl := New(simrand.New(7), Config{
			Service: "t",
			Faults:  faults,
			Latency: simrand.LogNormalMeanCV(0.01, 0.5),
		})
		var out []time.Duration
		eng := sim.NewEngine()
		eng.Spawn("req", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				start := p.Now()
				do(p, pl, "t.op", instant(func(c *CtxFlat) error {
					if err := c.ReadFault(); err != nil {
						return err
					}
					return c.CorruptRead("x")
				}))
				out = append(out, p.Now()-start)
			}
		})
		eng.Run()
		return out
	}
	clean := sample(FaultConfig{})
	// CorruptReadProb=1 always fires but must not draw; the read stage stays
	// at 0 and must not draw either.
	faulty := sample(FaultConfig{CorruptReadProb: 1})
	for i := range clean {
		if clean[i] != faulty[i] {
			t.Fatalf("op %d: latency %v with faults vs %v clean — degenerate fault gates consumed draws", i, faulty[i], clean[i])
		}
	}
}

// TestStageStreamIndependence is the draw-order regression test: enabling a
// fault stage draws from that stage's own stream, so the latency stage's
// sequence is bit-identical whether or not faults fire.
func TestStageStreamIndependence(t *testing.T) {
	sample := func(faults FaultConfig) ([]time.Duration, int) {
		pl := New(simrand.New(11), Config{
			Service: "t",
			Faults:  faults,
			Latency: simrand.LogNormalMeanCV(0.01, 0.5),
		})
		var lats []time.Duration
		errs := 0
		eng := sim.NewEngine()
		eng.Spawn("req", func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				before := p.Now()
				err := do(p, pl, "t.op", instant((*CtxFlat).ReadFault))
				if err != nil {
					if !storerr.IsCode(err, storerr.CodeTimeout) {
						t.Errorf("op %d: unexpected %v", i, err)
					}
					errs++
					// Skip ops where admission failed before the latency
					// sleep; with only ReadFailProb set none do.
				}
				lats = append(lats, p.Now()-before)
			}
		})
		eng.Run()
		return lats, errs
	}
	clean, _ := sample(FaultConfig{})
	faulty, errs := sample(FaultConfig{ReadFailProb: 0.5})
	if errs == 0 || errs == 200 {
		t.Fatalf("read faults fired %d/200 times; want a nondegenerate count", errs)
	}
	for i := range clean {
		if clean[i] != faulty[i] {
			t.Fatalf("op %d: latency %v with read faults vs %v without — fault stage perturbed the latency stream", i, faulty[i], clean[i])
		}
	}
}

func TestFaultRatesMatchProbabilities(t *testing.T) {
	const n = 4000
	for _, tc := range []struct {
		name   string
		faults FaultConfig
		code   storerr.Code
	}{
		{"conn", FaultConfig{ConnFailProb: 0.2}, storerr.CodeConnection},
		{"busy", FaultConfig{ServerBusyProb: 0.3}, storerr.CodeServerBusy},
	} {
		pl := New(simrand.New(5), Config{Service: "t", Faults: tc.faults})
		hits := 0
		eng := sim.NewEngine()
		eng.Spawn("req", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				if err := do(p, pl, "t.op", empty); err != nil {
					if !storerr.IsCode(err, tc.code) {
						t.Errorf("%s: wrong code %v", tc.name, err)
					}
					hits++
				}
			}
		})
		eng.Run()
		want := tc.faults.ConnFailProb + tc.faults.ServerBusyProb
		got := float64(hits) / n
		sigma := math.Sqrt(want * (1 - want) / n)
		if math.Abs(got-want) > 5*sigma {
			t.Errorf("%s: observed rate %.4f, configured %.2f (±%.4f)", tc.name, got, want, 5*sigma)
		}
	}
}

func TestHooksSharedAcrossForks(t *testing.T) {
	pl := New(simrand.New(3), Config{Service: "t"})
	sess := pl.ForkN("session", 0)
	var events []Event
	// Installed on the parent after the fork: must still observe the child.
	pl.AddHook(func(e Event) { events = append(events, e) })
	runOne(t, sess, "t.child", empty)
	runOne(t, pl, "t.parent", instant(func(*CtxFlat) error { return storerr.New(storerr.CodeNotFound, "t.parent", "") }))
	if len(events) != 2 || events[0].Op != "t.child" || events[1].Op != "t.parent" {
		t.Fatalf("hook events = %+v", events)
	}
	if events[0].Err != nil || !storerr.IsCode(events[1].Err, storerr.CodeNotFound) {
		t.Fatalf("hook errors = %v, %v", events[0].Err, events[1].Err)
	}
}

func TestSessionStreamsDecorrelated(t *testing.T) {
	pl := New(simrand.New(9), Config{
		Service: "t",
		Latency: simrand.LogNormalMeanCV(0.01, 0.5),
	})
	lat := func(sess *Pipeline) time.Duration {
		d, _ := runOne(t, sess, "t.op", empty)
		return d
	}
	a, b := lat(pl.ForkN("session", 0)), lat(pl.ForkN("session", 1))
	if a == b {
		t.Fatalf("sessions 0 and 1 drew identical latency %v", a)
	}
	if again := lat(pl.ForkN("session", 0)); again != a {
		t.Fatalf("session 0 refork drew %v, want %v", again, a)
	}
}
