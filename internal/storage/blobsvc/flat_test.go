package blobsvc

import (
	"testing"
	"time"

	"azureobs/internal/netsim"
	"azureobs/internal/sim"
	"azureobs/internal/storage/storerr"
)

type bObs struct {
	at   time.Duration
	code storerr.Code
	n    int64
	ok   bool
}

// TestFlatTraceMatchesBlocking runs the same blob workload — put, exists,
// get, overwrite conflict, delete, miss — once on the blocking API (a process
// driving the state machine through sim.Proc.Drive) and once on a
// kernel-driven actor, and checks per-op completion instants, outcomes,
// events fired and the final clock match exactly.
func TestFlatTraceMatchesBlocking(t *testing.T) {
	const size = 2 * netsim.MB

	runBlocking := func() (trace []bObs, fired uint64, end time.Duration) {
		eng, svc := newSvc(Config{})
		svc.CreateContainer("data")
		sess := svc.NewSession(0)
		eng.Spawn("c", func(p *sim.Proc) {
			rec := func(n int64, ok bool, err error) {
				trace = append(trace, bObs{p.Now(), storerr.CodeOf(err), n, ok})
			}
			err := sess.Put(p, "data", "b1", size, false)
			rec(0, err == nil, err)
			ok, err := sess.Exists(p, "data", "b1")
			rec(0, ok, err)
			n, err := sess.Get(p, "data", "b1")
			rec(n, err == nil, err)
			err = sess.Put(p, "data", "b1", size, false) // BlobExists
			rec(0, err == nil, err)
			err = sess.Delete(p, "data", "b1")
			rec(0, err == nil, err)
			ok, err = sess.Exists(p, "data", "b1")
			rec(0, ok, err)
			err = sess.Delete(p, "data", "b1") // NotFound
			rec(0, err == nil, err)
			_, err = sess.Get(p, "data", "b1") // NotFound
			rec(0, err == nil, err)
		})
		eng.Run()
		return trace, eng.EventsFired(), eng.Now()
	}

	runFlat := func() (trace []bObs, fired uint64, end time.Duration) {
		eng, svc := newSvc(Config{})
		svc.CreateContainer("data")
		sess := svc.NewSession(0)
		var a sim.Actor
		a.Bind(eng, "c")
		var steps []func()
		step := 0
		next := func() {
			step++
			if step < len(steps) {
				steps[step]()
			} else {
				a.Finish()
			}
		}
		rec := func(n int64, ok bool, err error) {
			trace = append(trace, bObs{a.Now(), storerr.CodeOf(err), n, ok})
		}
		sizeDone := func(n int64, err error) { rec(0, err == nil, err); next() }
		getDone := func(n int64, err error) { rec(n, err == nil, err); next() }
		getMissDone := func(n int64, err error) { rec(0, err == nil, err); next() }
		okDone := func(ok bool, err error) { rec(0, ok, err); next() }
		errDone := func(err error) { rec(0, err == nil, err); next() }
		steps = []func(){
			func() { sess.PutFlat(&a, "data", "b1", size, false, sizeDone) },
			func() { sess.ExistsFlat(&a, "data", "b1", okDone) },
			func() { sess.GetFlat(&a, "data", "b1", getDone) },
			func() { sess.PutFlat(&a, "data", "b1", size, false, sizeDone) },
			func() { sess.DeleteFlat(&a, "data", "b1", errDone) },
			func() { sess.ExistsFlat(&a, "data", "b1", okDone) },
			func() { sess.DeleteFlat(&a, "data", "b1", errDone) },
			func() { sess.GetFlat(&a, "data", "b1", getMissDone) },
		}
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
	// Pin the interesting outcomes so the workload keeps covering them.
	if bt[2].n != size {
		t.Fatalf("get size = %d, want %d", bt[2].n, size)
	}
	if bt[3].code != storerr.CodeBlobExists {
		t.Fatalf("overwrite code = %q, want BlobExists", bt[3].code)
	}
	if bt[5].ok {
		t.Fatal("exists after delete = true")
	}
	if bt[6].code != storerr.CodeNotFound || bt[7].code != storerr.CodeNotFound {
		t.Fatalf("post-delete codes = %q/%q, want NotFound", bt[6].code, bt[7].code)
	}
}
