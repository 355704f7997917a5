package blobsvc

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
	"time"

	"azureobs/internal/netsim"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/reqpath"
	"azureobs/internal/storage/storerr"
)

// goldenBlobTrace pins the blob service's request path: the hash of every
// completion (op, instant, outcome, result) and every hook event of the
// scripted workload in TestGoldenTrace. Any change to a stage's draw order,
// event count or timing moves it.
const goldenBlobTrace uint64 = 0x039aedcdbd8971c6

// pick draws an index in [0, n) from r.
func pick(r *simrand.RNG, n int) int { return int(r.Float64() * float64(n)) }

// TestGoldenTrace runs a scripted mixed-op workload with every fault stage
// enabled — six concurrent sessions issuing Get, GetRange (including bad
// ranges), Put (with and without overwrite), Exists and Delete against a
// shared container, through a brownout window — and checks the trace hash
// against the pinned value.
func TestGoldenTrace(t *testing.T) {
	eng := sim.NewEngine()
	fab := netsim.NewFabric(eng)
	svc := New(eng, fab, simrand.New(11), Config{
		ConnFailProb: 0.04, ServerBusyProb: 0.04, ReadFailProb: 0.05, CorruptReadProb: 0.05,
	})
	var h hash.Hash64 = fnv.New64a()
	svc.Pipeline().AddHook(func(ev reqpath.Event) {
		fmt.Fprintf(h, "hook %s %s %d %d %s\n", ev.Service, ev.Op, ev.Start, ev.Latency, storerr.CodeOf(ev.Err))
	})
	svc.CreateContainer("data")
	for i := 0; i < 4; i++ {
		svc.Seed("data", fmt.Sprintf("seed%d", i), int64(i+1)*netsim.MB)
	}
	root := simrand.New(5)
	for c := 0; c < 6; c++ {
		sess := svc.NewSession(c)
		r := root.ForkN("client", c)
		eng.Spawn(fmt.Sprintf("c%d", c), func(p *sim.Proc) {
			for i := 0; i < 25; i++ {
				p.Sleep(time.Duration(pick(r, 50)) * time.Millisecond)
				seed := fmt.Sprintf("seed%d", pick(r, 4))
				up := fmt.Sprintf("up%d", pick(r, 5))
				var n int64
				var ok bool
				var err error
				op := pick(r, 7)
				switch op {
				case 0:
					n, err = sess.Get(p, "data", seed)
				case 1:
					n, err = sess.GetRange(p, "data", seed, int64(pick(r, 3))*netsim.MB, int64(pick(r, 3))*netsim.MB/2)
				case 2:
					err = sess.Put(p, "data", up, int64(1+pick(r, 3))*netsim.MB/2, pick(r, 2) == 0)
				case 3:
					ok, err = sess.Exists(p, "data", up)
				case 4:
					err = sess.Delete(p, "data", up)
				case 5:
					n, err = sess.Get(p, "data", up)
				case 6:
					err = sess.Put(p, "nope", up, netsim.MB, true)
				}
				fmt.Fprintf(h, "%s %d op%d n=%d ok=%v %s\n", p.Name(), p.Now(), op, n, ok, storerr.CodeOf(err))
			}
		})
	}
	eng.Schedule(2*time.Second, func() { svc.Pipeline().SetOutage(reqpath.OutageBrownout) })
	eng.Schedule(3*time.Second, func() { svc.Pipeline().SetOutage(reqpath.OutageNone) })
	eng.Run()
	fmt.Fprintf(h, "end %d fired %d downloads %d uploads %d flows %d\n",
		eng.Now(), eng.EventsFired(), svc.Downloads(), svc.Uploads(), fab.ActiveFlows())
	if got := h.Sum64(); got != goldenBlobTrace {
		t.Fatalf("blob trace hash = %#016x, want %#016x", got, goldenBlobTrace)
	}
}
