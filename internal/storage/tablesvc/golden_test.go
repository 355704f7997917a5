package tablesvc

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

// goldenTableTrace pins the table service's request path: the hash of every
// completion and hook event of the scripted workload in TestGoldenTrace.
const goldenTableTrace uint64 = 0x014c7b29f6b4730b

// pick draws an index in [0, n) from r.
func pick(r *simrand.RNG, n int) int { return int(r.Float64() * float64(n)) }

// goldenConfig shrinks the server deadline and the partition ingest
// capacity so a short workload reaches both timeout paths: property-filter
// scans over a 1k-entity partition that exceed the deadline, and large
// inserts/deletes that overload the partition.
func goldenConfig() Config {
	return Config{
		ServerTimeout:  50 * time.Millisecond,
		IngestCapacity: 2 * netsim.MBps,
		OverloadK:      0.4,
		ConnFailProb:   0.03,
		ServerBusyProb: 0.03,
	}
}

// TestGoldenTrace runs a scripted mixed-op workload with every fault stage
// enabled — eight concurrent clients issuing Insert, Get, Update, Delete and
// QueryFilter, with filter scans that time out server-side and writes that
// time out on ingest overload, through a brownout window — and checks the
// trace hash against the pinned value. Filter results enter the hash by
// count only: their order is not part of the contract.
func TestGoldenTrace(t *testing.T) {
	eng := sim.NewEngine()
	svc := New(eng, simrand.New(11), goldenConfig())
	var h hash.Hash64 = fnv.New64a()
	svc.Pipeline().AddHook(func(ev reqpath.Event) {
		fmt.Fprintf(h, "hook %s %s %d %d %s\n", ev.Service, ev.Op, ev.Start, ev.Latency, storerr.CodeOf(ev.Err))
	})
	for i := 0; i < 1000; i++ {
		svc.Backdoor("t", PaddedEntity("big", fmt.Sprintf("r%04d", i), 256))
	}
	svc.CreateTable("t")
	root := simrand.New(5)
	for c := 0; c < 8; c++ {
		r := root.ForkN("client", c)
		eng.Spawn(fmt.Sprintf("c%d", c), func(p *sim.Proc) {
			for i := 0; i < 30; i++ {
				p.Sleep(time.Duration(pick(r, 20)) * time.Millisecond)
				rk := fmt.Sprintf("k%d", pick(r, 6))
				size := 1024 << pick(r, 7) // 1 kB .. 64 kB
				var n int
				var err error
				op := pick(r, 7)
				switch op {
				case 0, 1:
					err = svc.Insert(p, "t", PaddedEntity("hot", rk, size))
				case 2:
					var e *Entity
					e, err = svc.Get(p, "t", "hot", rk)
					if e != nil {
						n = e.Size()
					}
				case 3:
					err = svc.Update(p, "t", PaddedEntity("hot", rk, size))
				case 4:
					err = svc.Delete(p, "t", "hot", rk)
				case 5:
					var out []*Entity
					out, err = svc.QueryFilter(p, "t", "big", func(e *Entity) bool { return e.RowKey < "r0100" })
					n = len(out)
				case 6:
					_, err = svc.Get(p, "missing", "hot", rk)
				}
				fmt.Fprintf(h, "%s %d op%d n=%d %s\n", p.Name(), p.Now(), op, n, storerr.CodeOf(err))
			}
		})
	}
	eng.Schedule(300*time.Millisecond, func() { svc.Pipeline().SetOutage(reqpath.OutageBrownout) })
	eng.Schedule(400*time.Millisecond, func() { svc.Pipeline().SetOutage(reqpath.OutageNone) })
	eng.Run()
	fmt.Fprintf(h, "end %d fired %d timeouts %d scans %d ops %d/%d/%d/%d\n",
		eng.Now(), eng.EventsFired(), svc.Timeouts(), svc.scans,
		svc.insert.Ops(), svc.query.Ops(), svc.update.Ops(), svc.delete.Ops())
	if svc.Timeouts() == 0 {
		t.Fatal("workload produced no server-side timeouts")
	}
	if got := h.Sum64(); got != goldenTableTrace {
		t.Fatalf("table trace hash = %#016x, want %#016x", got, goldenTableTrace)
	}
}
