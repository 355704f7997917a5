package queuesvc

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/storage/storerr"
)

// goldenQueueTrace pins the queue service's request path: the hash of every
// completion and hook event of the scripted workload in TestGoldenTrace.
const goldenQueueTrace uint64 = 0x2374979382a2f60a

// pick draws an index in [0, n) from r.
func pick(r *simrand.RNG, n int) int { return int(r.Float64() * float64(n)) }

// TestGoldenTrace runs a scripted mixed-op workload with every fault stage
// enabled — eight concurrent clients issuing Add, Peek, Receive (with
// visibility windows short enough that messages reappear) and Delete (with
// receipts that go stale), through a brownout window — and checks the trace
// hash against the pinned value.
func TestGoldenTrace(t *testing.T) {
	eng := sim.NewEngine()
	svc := New(eng, simrand.New(11), Config{ConnFailProb: 0.04, ServerBusyProb: 0.04})
	var h hash.Hash64 = fnv.New64a()
	svc.Pipeline().AddHook(func(ev reqpath.Event) {
		fmt.Fprintf(h, "hook %s %s %d %d %s\n", ev.Service, ev.Op, ev.Start, ev.Latency, storerr.CodeOf(ev.Err))
	})
	q := svc.CreateQueue("work")
	q.Prefill(5, 256)
	root := simrand.New(5)
	for c := 0; c < 8; c++ {
		r := root.ForkN("client", c)
		eng.Spawn(fmt.Sprintf("c%d", c), func(p *sim.Proc) {
			var held []Receipt
			for i := 0; i < 30; i++ {
				p.Sleep(time.Duration(pick(r, 40)) * time.Millisecond)
				var id uint64
				var ok bool
				var err error
				op := pick(r, 4)
				switch op {
				case 0:
					id, err = svc.Add(p, q, fmt.Sprintf("m%d-%d", c, i), 512<<pick(r, 6))
				case 1:
					var m *Message
					m, ok, err = svc.Peek(p, q)
					if ok {
						id = m.ID
					}
				case 2:
					var m *Message
					var rcpt Receipt
					m, rcpt, ok, err = svc.Receive(p, q, time.Duration(50+pick(r, 200))*time.Millisecond)
					if ok {
						id = m.ID
						held = append(held, rcpt)
					}
				case 3:
					if len(held) > 0 {
						rcpt := held[0]
						held = held[1:]
						id = rcpt.MsgID
						err = svc.Delete(p, q, rcpt)
					}
				}
				fmt.Fprintf(h, "%s %d op%d id=%d ok=%v %s\n", p.Name(), p.Now(), op, id, ok, storerr.CodeOf(err))
			}
		})
	}
	eng.Schedule(500*time.Millisecond, func() { svc.Pipeline().SetOutage(reqpath.OutageBrownout) })
	eng.Schedule(700*time.Millisecond, func() { svc.Pipeline().SetOutage(reqpath.OutageNone) })
	eng.Run()
	fmt.Fprintf(h, "end %d fired %d len %d ops %d/%d/%d/%d\n", eng.Now(), eng.EventsFired(), q.Len(),
		svc.add.Ops(), svc.peek.Ops(), svc.receive.Ops(), svc.del.Ops())
	if got := h.Sum64(); got != goldenQueueTrace {
		t.Fatalf("queue trace hash = %#016x, want %#016x", got, goldenQueueTrace)
	}
}

// TestKillMidVisit kills a process inside a Receive's station visit: the
// station's client count must return to its prior value without counting
// the visit as served, no message may be hidden, and the killed request
// must reach no hook.
func TestKillMidVisit(t *testing.T) {
	eng, svc := newSvc()
	q := svc.CreateQueue("work")
	q.Prefill(1, 256)
	hooks := 0
	svc.Pipeline().AddHook(func(reqpath.Event) { hooks++ })
	victim := eng.Spawn("recv", func(p *sim.Proc) {
		svc.Receive(p, q, time.Minute)
		t.Error("killed receive returned")
	})
	eng.Schedule(10*time.Millisecond, func() {
		if svc.receive.Attached() != 1 {
			t.Fatalf("before kill: receive attached %d, want 1", svc.receive.Attached())
		}
		victim.Kill()
	})
	eng.Run()
	if !victim.Finished() {
		t.Fatal("victim not finished")
	}
	if svc.receive.Attached() != 0 || svc.receive.Ops() != 0 {
		t.Fatalf("after kill: receive attached %d, ops %d; want 0, 0", svc.receive.Attached(), svc.receive.Ops())
	}
	if hooks != 0 {
		t.Fatalf("killed receive reached %d hooks", hooks)
	}
	if q.firstVisible(eng.Now()) == nil {
		t.Fatal("killed receive hid the message")
	}
}
