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

// TestKillMidVisit withdraws two actors inside a station visit, one
// adding and one receiving, the way ModisAzure's crash handler withdraws a
// worker: Actor.Cancel with the request's ReqFlat.Abort as the unwind. Each
// station's client count must return to its pinned load without counting
// the visit as served, no message may be added or hidden, and neither
// request may reach a hook or its completion.
func TestKillMidVisit(t *testing.T) {
	eng, svc := newSvc()
	q := svc.CreateQueue("work")
	q.Prefill(1, 256)
	const pinned = 2 // standing load attached outside any visit
	for i := 0; i < pinned; i++ {
		svc.add.Attach()
	}
	hooks := 0
	svc.Pipeline().AddHook(func(reqpath.Event) { hooks++ })
	var adder, receiver sim.Actor
	adder.Bind(eng, "add")
	receiver.Bind(eng, "recv")
	add, recv := svc.NewReqFlat(), svc.NewReqFlat()
	adder.Go(func() {
		add.BeginAdd(&adder, q, "task", nil, 256, func(uint64, error) {
			t.Error("cancelled add completed")
			adder.Finish()
		})
	})
	receiver.Go(func() {
		recv.BeginReceive(&receiver, q, time.Minute, func(*Message, Receipt, bool, error) {
			t.Error("cancelled receive completed")
			receiver.Finish()
		})
	})
	eng.Schedule(10*time.Millisecond, func() {
		if svc.add.Attached() != pinned+1 || svc.receive.Attached() != 1 {
			t.Fatalf("before the cancel: add attached %d, receive attached %d; want %d, 1",
				svc.add.Attached(), svc.receive.Attached(), pinned+1)
		}
		adder.Cancel(add.Abort)
		receiver.Cancel(recv.Abort)
	})
	eng.Run()
	if adder.Live() || receiver.Live() {
		t.Fatal("cancelled actors still live")
	}
	if svc.add.Attached() != pinned || svc.add.Ops() != 0 {
		t.Fatalf("after the cancel: add attached %d, ops %d; want %d, 0", svc.add.Attached(), svc.add.Ops(), pinned)
	}
	if svc.receive.Attached() != 0 || svc.receive.Ops() != 0 {
		t.Fatalf("after the cancel: receive attached %d, ops %d; want 0, 0", svc.receive.Attached(), svc.receive.Ops())
	}
	if hooks != 0 {
		t.Fatalf("cancelled requests reached %d hooks", hooks)
	}
	if q.Len() != 1 {
		t.Fatalf("queue holds %d messages, want the 1 prefilled (the cancelled add added one)", q.Len())
	}
	if q.firstVisible(eng.Now()) == nil {
		t.Fatal("cancelled receive hid the message")
	}
}
