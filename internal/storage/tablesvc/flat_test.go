package tablesvc

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/storerr"
)

type flatObs struct {
	at   time.Duration
	code storerr.Code
}

func newRNG() *simrand.RNG { return simrand.New(1) }

func rowKey(i int) string { return fmt.Sprintf("row-%04d", i) }

func sortStrings(s []string) { sort.Strings(s) }

// TestWriteFlatTraceMatchesBlocking runs the same write workload once on the
// blocking API (a process driving the state machine through sim.Proc.Drive)
// and once on a kernel-driven actor, and checks the kernel observables that
// define a trace — per-op completion instants and outcomes, events fired,
// final clock — match exactly: the two drivers must cost the same events.
func TestWriteFlatTraceMatchesBlocking(t *testing.T) {
	ent := func(rk string, size int) *Entity { return PaddedEntity("pk", rk, size) }

	runBlocking := func() (trace []flatObs, fired uint64, end time.Duration) {
		eng, svc := newSvc()
		svc.CreateTable("t")
		eng.Spawn("c", func(p *sim.Proc) {
			rec := func(err error) { trace = append(trace, flatObs{p.Now(), storerr.CodeOf(err)}) }
			rec(svc.Insert(p, "t", ent("rk", 4096)))
			rec(svc.Insert(p, "t", ent("rk", 4096))) // Conflict
			rec(svc.Update(p, "t", ent("rk", 1024)))
			rec(svc.Update(p, "t", ent("ghost", 256))) // NotFound
			rec(svc.Delete(p, "t", "pk", "rk"))
			rec(svc.Delete(p, "t", "pk", "rk"))        // NotFound
			rec(svc.Insert(p, "ghost", ent("rk", 64))) // NotFound (table)
		})
		eng.Run()
		return trace, eng.EventsFired(), eng.Now()
	}

	runFlat := func() (trace []flatObs, fired uint64, end time.Duration) {
		eng, svc := newSvc()
		svc.CreateTable("t")
		var a sim.Actor
		a.Bind(eng, "c")
		var w *WriteFlat
		steps := []func(){
			func() { w.BeginInsert(&a, "t", ent("rk", 4096)) },
			func() { w.BeginInsert(&a, "t", ent("rk", 4096)) },
			func() { w.BeginUpdate(&a, "t", ent("rk", 1024)) },
			func() { w.BeginUpdate(&a, "t", ent("ghost", 256)) },
			func() { w.BeginDelete(&a, "t", "pk", "rk") },
			func() { w.BeginDelete(&a, "t", "pk", "rk") },
			func() { w.BeginInsert(&a, "ghost", ent("rk", 64)) },
		}
		step := 0
		w = svc.NewWriteFlat(func(err error) {
			trace = append(trace, flatObs{a.Now(), storerr.CodeOf(err)})
			step++
			if step < len(steps) {
				steps[step]()
			} else {
				a.Finish()
			}
		})
		a.Go(steps[0])
		eng.Run()
		return trace, eng.EventsFired(), eng.Now()
	}

	bt, bf, be := runBlocking()
	ft, ff, fe := runFlat()
	if bf != ff || be != fe {
		t.Fatalf("blocking (fired=%d end=%v) != flat (fired=%d end=%v)", bf, be, ff, fe)
	}
	if len(bt) != len(ft) {
		t.Fatalf("trace lengths: blocking %d, flat %d", len(bt), len(ft))
	}
	for i := range bt {
		if bt[i] != ft[i] {
			t.Fatalf("op %d: blocking %+v != flat %+v", i, bt[i], ft[i])
		}
	}
	wantCodes := []storerr.Code{"", storerr.CodeConflict, "", storerr.CodeNotFound, "", storerr.CodeNotFound, storerr.CodeNotFound}
	for i, c := range wantCodes {
		if bt[i].code != c {
			t.Fatalf("op %d code = %q, want %q", i, bt[i].code, c)
		}
	}
}

// TestWriteFlatOverloadTimeout drives both drivers into the ingest-overload
// timeout (prob ≥ 1, so no Bernoulli draw is consumed) and checks they burn
// the same ServerTimeout, reply OperationTimedOut, and count one service
// timeout each.
func TestWriteFlatOverloadTimeout(t *testing.T) {
	cfg := Config{IngestCapacity: 1, OverloadK: 1000, ServerTimeout: 10 * time.Second}

	runBlocking := func() (code storerr.Code, end time.Duration, timeouts uint64) {
		eng := sim.NewEngine()
		svc := New(eng, newRNG(), cfg)
		svc.CreateTable("t")
		var err error
		eng.Spawn("c", func(p *sim.Proc) {
			err = svc.Insert(p, "t", PaddedEntity("pk", "rk", 65536))
		})
		eng.Run()
		return storerr.CodeOf(err), eng.Now(), svc.Timeouts()
	}

	runFlat := func() (code storerr.Code, end time.Duration, timeouts uint64) {
		eng := sim.NewEngine()
		svc := New(eng, newRNG(), cfg)
		svc.CreateTable("t")
		var a sim.Actor
		a.Bind(eng, "c")
		var got error
		w := svc.NewWriteFlat(func(err error) { got = err; a.Finish() })
		a.Go(func() { w.BeginInsert(&a, "t", PaddedEntity("pk", "rk", 65536)) })
		eng.Run()
		return storerr.CodeOf(got), eng.Now(), svc.Timeouts()
	}

	bc, be, bn := runBlocking()
	fc, fe, fn := runFlat()
	if bc != storerr.CodeTimeout {
		t.Fatalf("blocking overload code = %q, want timeout", bc)
	}
	if bc != fc || be != fe || bn != fn {
		t.Fatalf("blocking (%q end=%v timeouts=%d) != flat (%q end=%v timeouts=%d)", bc, be, bn, fc, fe, fn)
	}
	if be != 10*time.Second {
		t.Fatalf("overload burn ended at %v, want the 10s ServerTimeout", be)
	}
}

// TestQueryFlatTraceMatchesBlocking compares a property-filter scan under
// both drivers: same completion instant, same events, and the same entities
// in ascending RowKey order.
func TestQueryFlatTraceMatchesBlocking(t *testing.T) {
	populate := func(svc *Service) {
		svc.CreateTable("t")
		for i := 0; i < 40; i++ {
			e := PaddedEntity("pk", rowKey(i), 512)
			if i%2 == 0 {
				e.Props["A"] = IntProp(7)
			}
			svc.Backdoor("t", e)
		}
	}
	pred := func(e *Entity) bool { return e.Props["A"].Int == 7 }

	runBlocking := func() (rks []string, err error, fired uint64, end time.Duration) {
		eng, svc := newSvc()
		populate(svc)
		var out []*Entity
		eng.Spawn("c", func(p *sim.Proc) {
			out, err = svc.QueryFilter(p, "t", "pk", pred)
		})
		eng.Run()
		for _, e := range out {
			rks = append(rks, e.RowKey)
		}
		return rks, err, eng.EventsFired(), eng.Now()
	}

	runFlat := func() (rks []string, err error, fired uint64, end time.Duration) {
		eng, svc := newSvc()
		populate(svc)
		var a sim.Actor
		a.Bind(eng, "c")
		q := svc.NewQueryFlat(func(out []*Entity, e error) {
			err = e
			for _, ent := range out {
				rks = append(rks, ent.RowKey)
			}
			a.Finish()
		})
		a.Go(func() { q.Begin(&a, "t", "pk", pred) })
		eng.Run()
		return rks, err, eng.EventsFired(), eng.Now()
	}

	brks, berr, bf, be := runBlocking()
	frks, ferr, ff, fe := runFlat()
	if berr != nil || ferr != nil {
		t.Fatalf("scan errors: blocking %v, flat %v", berr, ferr)
	}
	if bf != ff || be != fe {
		t.Fatalf("blocking (fired=%d end=%v) != flat (fired=%d end=%v)", bf, be, ff, fe)
	}
	if len(brks) != 20 || len(frks) != 20 {
		t.Fatalf("matches: blocking %d, flat %d, want 20", len(brks), len(frks))
	}
	sortStrings(brks)
	for i := range brks {
		if brks[i] != frks[i] {
			t.Fatalf("row %d: blocking %q != flat %q (flat must be rk-sorted)", i, brks[i], frks[i])
		}
	}
}

// TestQueryFlatTimeoutMatchesBlocking forces the scan over the server
// deadline under both drivers and checks the identical burn, reply and
// counters.
func TestQueryFlatTimeoutMatchesBlocking(t *testing.T) {
	cfg := Config{ScanSecPerEntity: 1e-2, ServerTimeout: 5 * time.Second}
	populate := func(svc *Service) {
		svc.CreateTable("t")
		for i := 0; i < 5000; i++ {
			svc.Backdoor("t", PaddedEntity("pk", rowKey(i), 64))
		}
	}

	runBlocking := func() (code storerr.Code, end time.Duration, timeouts uint64, fired uint64) {
		eng := sim.NewEngine()
		svc := New(eng, newRNG(), cfg)
		populate(svc)
		var err error
		eng.Spawn("c", func(p *sim.Proc) {
			_, err = svc.QueryFilter(p, "t", "pk", func(*Entity) bool { return true })
		})
		eng.Run()
		return storerr.CodeOf(err), eng.Now(), svc.Timeouts(), eng.EventsFired()
	}

	runFlat := func() (code storerr.Code, end time.Duration, timeouts uint64, fired uint64) {
		eng := sim.NewEngine()
		svc := New(eng, newRNG(), cfg)
		populate(svc)
		var a sim.Actor
		a.Bind(eng, "c")
		var got error
		q := svc.NewQueryFlat(func(out []*Entity, err error) {
			got = err
			if out != nil {
				t.Error("timed-out scan returned entities")
			}
			a.Finish()
		})
		a.Go(func() { q.Begin(&a, "t", "pk", nil) })
		eng.Run()
		return storerr.CodeOf(got), eng.Now(), svc.Timeouts(), eng.EventsFired()
	}

	bc, be, bn, bf := runBlocking()
	fc, fe, fn, ff := runFlat()
	if bc != storerr.CodeTimeout {
		t.Fatalf("blocking scan code = %q, want timeout (mean scan 56s vs 5s deadline)", bc)
	}
	if bc != fc || be != fe || bn != fn || bf != ff {
		t.Fatalf("blocking (%q end=%v timeouts=%d fired=%d) != flat (%q end=%v timeouts=%d fired=%d)",
			bc, be, bn, bf, fc, fe, fn, ff)
	}
}
