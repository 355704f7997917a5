package queuesvc

import (
	"testing"
	"time"

	"azureobs/internal/sim"
	"azureobs/internal/storage/storerr"
)

type qObs struct {
	at   time.Duration
	code storerr.Code
	id   uint64
	ok   bool
}

// TestReqFlatTraceMatchesBlocking runs the same queue workload — add, peek,
// receive, delete, visibility overrun, stale-receipt conflict — once on the
// blocking API (a process driving the state machine through sim.Proc.Drive)
// and once on a kernel-driven actor, and checks per-op completion instants,
// outcomes, events fired and the final clock match exactly.
func TestReqFlatTraceMatchesBlocking(t *testing.T) {
	runBlocking := func() (trace []qObs, fired uint64, end time.Duration) {
		eng, svc := newSvc()
		q := svc.CreateQueue("q")
		eng.Spawn("c", func(p *sim.Proc) {
			rec := func(id uint64, ok bool, err error) {
				trace = append(trace, qObs{p.Now(), storerr.CodeOf(err), id, ok})
			}
			id, err := svc.Add(p, q, "m1", 512)
			rec(id, err == nil, err)
			id, err = svc.Add(p, q, "m2", 2048)
			rec(id, err == nil, err)

			m, ok, err := svc.Peek(p, q)
			rec(msgID(m), ok, err)

			m, r1, ok, err := svc.Receive(p, q, 5*time.Second)
			rec(msgID(m), ok, err)

			err = svc.Delete(p, q, r1)
			rec(0, err == nil, err)
			err = svc.Delete(p, q, r1) // already deleted → NotFound
			rec(0, err == nil, err)

			// Overrun: receive m2 with a short window, let it reappear, then
			// present the stale receipt.
			m, r2, ok, err := svc.Receive(p, q, 5*time.Second)
			rec(msgID(m), ok, err)
			p.Sleep(6 * time.Second)
			m, r3, ok, err := svc.Receive(p, q, time.Minute)
			rec(msgID(m), ok, err)
			err = svc.Delete(p, q, r2) // stale → Conflict
			rec(0, err == nil, err)
			err = svc.Delete(p, q, r3)
			rec(0, err == nil, err)

			m, ok, err = svc.Peek(p, q) // empty: ok=false, err=nil
			rec(msgID(m), ok, err)
		})
		eng.Run()
		return trace, eng.EventsFired(), eng.Now()
	}

	runFlat := func() (trace []qObs, fired uint64, end time.Duration) {
		eng, svc := newSvc()
		q := svc.CreateQueue("q")
		var a sim.Actor
		a.Bind(eng, "c")
		r := svc.NewReqFlat()

		var rcpt1, rcpt2, rcpt3 Receipt
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
		rec := func(id uint64, ok bool, err error) {
			trace = append(trace, qObs{a.Now(), storerr.CodeOf(err), id, ok})
		}
		addDone := func(id uint64, err error) { rec(id, err == nil, err); next() }
		peekDone := func(m *Message, ok bool, err error) { rec(msgID(m), ok, err); next() }
		delDone := func(err error) { rec(0, err == nil, err); next() }
		steps = []func(){
			func() { r.BeginAdd(&a, q, "m1", nil, 512, addDone) },
			func() { r.BeginAdd(&a, q, "m2", nil, 2048, addDone) },
			func() { r.BeginPeek(&a, q, peekDone) },
			func() {
				r.BeginReceive(&a, q, 5*time.Second, func(m *Message, rc Receipt, ok bool, err error) {
					rcpt1 = rc
					rec(msgID(m), ok, err)
					next()
				})
			},
			func() { r.BeginDelete(&a, q, rcpt1, delDone) },
			func() { r.BeginDelete(&a, q, rcpt1, delDone) },
			func() {
				r.BeginReceive(&a, q, 5*time.Second, func(m *Message, rc Receipt, ok bool, err error) {
					rcpt2 = rc
					rec(msgID(m), ok, err)
					a.Sleep(6*time.Second, next)
				})
			},
			func() {
				r.BeginReceive(&a, q, time.Minute, func(m *Message, rc Receipt, ok bool, err error) {
					rcpt3 = rc
					rec(msgID(m), ok, err)
					next()
				})
			},
			func() { r.BeginDelete(&a, q, rcpt2, delDone) },
			func() { r.BeginDelete(&a, q, rcpt3, delDone) },
			func() { r.BeginPeek(&a, q, peekDone) },
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
	if bt[5].code != storerr.CodeNotFound {
		t.Fatalf("double delete code = %q, want NotFound", bt[5].code)
	}
	if bt[8].code != storerr.CodeConflict {
		t.Fatalf("stale receipt code = %q, want Conflict", bt[8].code)
	}
	if last := bt[len(bt)-1]; last.ok || last.code != "" {
		t.Fatalf("empty peek = %+v, want ok=false err=nil", last)
	}
}

func msgID(m *Message) uint64 {
	if m == nil {
		return 0
	}
	return m.ID
}

// TestReceiptWireRoundTrip pins the wire encoding of pop receipts.
func TestReceiptWireRoundTrip(t *testing.T) {
	r := Receipt{MsgID: 42, token: 7}
	if r.String() != "42.7" {
		t.Fatalf("String() = %q, want 42.7", r.String())
	}
	got, ok := ParseReceipt("42.7")
	if !ok || got != r {
		t.Fatalf("ParseReceipt = %+v ok=%v", got, ok)
	}
	for _, bad := range []string{"", "42", "42.", ".7", "x.7", "42.y", "4 2.7"} {
		if _, ok := ParseReceipt(bad); ok {
			t.Fatalf("ParseReceipt(%q) accepted", bad)
		}
	}
}
