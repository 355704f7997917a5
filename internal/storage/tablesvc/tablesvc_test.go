package tablesvc

import (
	"fmt"
	"math"
	"testing"
	"time"

	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/station"
	"azureobs/internal/storage/storerr"
)

func newSvc() (*sim.Engine, *Service) {
	eng := sim.NewEngine()
	return eng, New(eng, simrand.New(1), Config{})
}

func TestPaddedEntitySize(t *testing.T) {
	for _, size := range []int{1024, 4096, 16384, 65536} {
		e := PaddedEntity("part", "row-000001", size)
		if e.Size() != size {
			t.Fatalf("padded entity size = %d, want %d", e.Size(), size)
		}
	}
}

func TestPropKinds(t *testing.T) {
	e := PaddedEntity("p", "r", 1024)
	if e.Props["A"].Kind != PropInt || e.Props["C"].Kind != PropString {
		t.Fatal("paper entity shape {int,int,String,String} not preserved")
	}
}

func TestInsertGetUpdateDelete(t *testing.T) {
	eng, svc := newSvc()
	svc.CreateTable("t")
	eng.Spawn("c", func(p *sim.Proc) {
		e := PaddedEntity("pk", "rk", 4096)
		if err := svc.Insert(p, "t", e); err != nil {
			t.Errorf("insert: %v", err)
		}
		if err := svc.Insert(p, "t", e); !storerr.IsCode(err, storerr.CodeConflict) {
			t.Errorf("double insert = %v, want Conflict", err)
		}
		got, err := svc.Get(p, "t", "pk", "rk")
		if err != nil || got.Size() != 4096 {
			t.Errorf("get = %v, %v", got, err)
		}
		upd := PaddedEntity("pk", "rk", 1024)
		if err := svc.Update(p, "t", upd); err != nil {
			t.Errorf("update: %v", err)
		}
		got, _ = svc.Get(p, "t", "pk", "rk")
		if got.Size() != 1024 {
			t.Errorf("size after update = %d", got.Size())
		}
		if err := svc.Delete(p, "t", "pk", "rk"); err != nil {
			t.Errorf("delete: %v", err)
		}
		if _, err := svc.Get(p, "t", "pk", "rk"); !storerr.IsCode(err, storerr.CodeNotFound) {
			t.Errorf("get after delete = %v", err)
		}
	})
	eng.Run()
}

func TestMissingTable(t *testing.T) {
	eng, svc := newSvc()
	eng.Spawn("c", func(p *sim.Proc) {
		if err := svc.Insert(p, "ghost", PaddedEntity("p", "r", 100)); !storerr.IsCode(err, storerr.CodeNotFound) {
			t.Errorf("insert into missing table = %v", err)
		}
	})
	eng.Run()
}

func TestUpdateMissingEntity(t *testing.T) {
	eng, svc := newSvc()
	svc.CreateTable("t")
	eng.Spawn("c", func(p *sim.Proc) {
		if err := svc.Update(p, "t", PaddedEntity("p", "r", 100)); !storerr.IsCode(err, storerr.CodeNotFound) {
			t.Errorf("update missing = %v", err)
		}
		if err := svc.Delete(p, "t", "p", "r"); !storerr.IsCode(err, storerr.CodeNotFound) {
			t.Errorf("delete missing = %v", err)
		}
	})
	eng.Run()
}

// TestReadsCreateNoPartition checks that only writes that may add a row
// create a partition: gets, scans, updates and deletes of 1,000 distinct
// absent partition keys leave the table's partition count unchanged, and
// still answer NotFound or an empty scan.
func TestReadsCreateNoPartition(t *testing.T) {
	eng, svc := newSvc()
	svc.Backdoor("t", PaddedEntity("pk", "rk", 100))
	before := len(svc.tables["t"])
	eng.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			pk := fmt.Sprintf("absent-%d", i)
			if _, err := svc.Get(p, "t", pk, "rk"); !storerr.IsCode(err, storerr.CodeNotFound) {
				t.Fatalf("get of absent partition = %v", err)
			}
			if out, err := svc.QueryFilter(p, "t", pk, nil); err != nil || len(out) != 0 {
				t.Fatalf("scan of absent partition = %d rows, %v", len(out), err)
			}
			if err := svc.Update(p, "t", PaddedEntity(pk, "rk", 100)); !storerr.IsCode(err, storerr.CodeNotFound) {
				t.Fatalf("update in absent partition = %v", err)
			}
			if err := svc.Delete(p, "t", pk, "rk"); !storerr.IsCode(err, storerr.CodeNotFound) {
				t.Fatalf("delete in absent partition = %v", err)
			}
		}
	})
	eng.Run()
	if after := len(svc.tables["t"]); after != before {
		t.Fatalf("partitions = %d after reads of absent keys, want %d", after, before)
	}
}

// TestUpdateSeesPartitionCreatedDuringVisit: an update that arrives before
// its partition exists finds a row inserted while it visits the station,
// as it did when every lookup created the partition on arrival.
func TestUpdateSeesPartitionCreatedDuringVisit(t *testing.T) {
	eng, svc := newSvc()
	svc.CreateTable("t")
	var err error
	eng.Spawn("c", func(p *sim.Proc) {
		err = svc.Update(p, "t", PaddedEntity("late", "rk", 100))
	})
	eng.After(time.Microsecond, func() { svc.Backdoor("t", PaddedEntity("late", "rk", 200)) })
	eng.Run()
	if err != nil {
		t.Fatalf("update = %v, want success against the row inserted during its visit", err)
	}
	eng.Spawn("c", func(p *sim.Proc) {
		var e *Entity
		if e, err = svc.Get(p, "t", "late", "rk"); err == nil && e.Size() != 100 {
			t.Errorf("size after update = %d, want 100", e.Size())
		}
	})
	eng.Run()
	if err != nil {
		t.Fatalf("get = %v", err)
	}
}

// TestDeleteDropsEmptyPartition: deleting a partition's last row drops the
// partition, so insert/delete churn over distinct keys leaves the table's
// partition count where it started.
func TestDeleteDropsEmptyPartition(t *testing.T) {
	eng, svc := newSvc()
	svc.CreateTable("t")
	svc.Backdoor("t", PaddedEntity("kept", "rk", 100))
	before := len(svc.tables["t"])
	eng.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			pk := fmt.Sprintf("churn-%d", i)
			if err := svc.Insert(p, "t", PaddedEntity(pk, "rk", 100)); err != nil {
				t.Fatalf("insert %s: %v", pk, err)
			}
			if err := svc.Delete(p, "t", pk, "rk"); err != nil {
				t.Fatalf("delete %s: %v", pk, err)
			}
		}
	})
	eng.Run()
	if after := len(svc.tables["t"]); after != before {
		t.Fatalf("partitions = %d after 1000 insert+delete pairs, want %d", after, before)
	}
	if svc.PartitionSize("t", "kept") != 1 {
		t.Fatal("an untouched partition lost its row")
	}
}

// TestUpdateLandsInRecreatedPartition: an update whose partition is emptied
// (and so dropped) and then recreated while it visits the station writes
// to the live partition, not to the dropped one.
func TestUpdateLandsInRecreatedPartition(t *testing.T) {
	eng := sim.NewEngine()
	// A slow, jitter-free update station keeps the update visiting while
	// the delete and the re-insert complete.
	svc := New(eng, simrand.New(1), Config{Update: station.Config{S0: time.Second, N0: 8, Gamma: 2}})
	svc.Backdoor("t", PaddedEntity("p", "rk", 100))
	var uerr error
	eng.Spawn("updater", func(p *sim.Proc) {
		uerr = svc.Update(p, "t", PaddedEntity("p", "rk", 300))
	})
	eng.Spawn("churner", func(p *sim.Proc) {
		if err := svc.Delete(p, "t", "p", "rk"); err != nil {
			t.Errorf("delete: %v", err)
		}
		if _, ok := svc.tables["t"]["p"]; ok {
			t.Error("partition survived the delete of its last row")
		}
		if err := svc.Insert(p, "t", PaddedEntity("p", "rk", 200)); err != nil {
			t.Errorf("re-insert: %v", err)
		}
	})
	eng.Run()
	if uerr != nil {
		t.Fatalf("update = %v, want success against the recreated row", uerr)
	}
	var e *Entity
	var gerr error
	eng.Spawn("reader", func(p *sim.Proc) { e, gerr = svc.Get(p, "t", "p", "rk") })
	eng.Run()
	if gerr != nil || e.Size() != 300 {
		t.Fatalf("live row after update: %v, %v; want the updated 300-byte entity", e, gerr)
	}
}

// opsRate runs `clients` closed-loop clients doing `opsEach` operations and
// returns the mean per-client ops/s.
func opsRate(t *testing.T, clients, opsEach, entitySize int,
	doOp func(p *sim.Proc, svc *Service, client, i int) error) float64 {
	t.Helper()
	eng, svc := newSvc()
	svc.CreateTable("t")
	// Pre-populate for query/update/delete workloads.
	for c := 0; c < clients; c++ {
		for i := 0; i < opsEach; i++ {
			svc.Backdoor("t", PaddedEntity("pk", fmt.Sprintf("row-%d-%d", c, i), entitySize))
		}
	}
	var totalOps int
	var totalTime time.Duration
	for c := 0; c < clients; c++ {
		c := c
		eng.Spawn("client", func(p *sim.Proc) {
			start := p.Now()
			n := 0
			for i := 0; i < opsEach; i++ {
				if err := doOp(p, svc, c, i); err != nil {
					break
				}
				n++
			}
			totalOps += n
			totalTime += p.Now() - start
		})
	}
	eng.Run()
	// totalTime sums per-client busy time, so this is the per-client rate.
	return float64(totalOps) / totalTime.Seconds()
}

func TestFig2InsertDecaysGently(t *testing.T) {
	ins := func(p *sim.Proc, svc *Service, c, i int) error {
		return svc.Insert(p, "t", PaddedEntity("pk", fmt.Sprintf("n-%d-%d", c, i), 4096))
	}
	r1 := opsRate(t, 1, 120, 4096, ins)
	r32 := opsRate(t, 32, 60, 4096, ins)
	r192 := opsRate(t, 192, 40, 4096, ins)
	if math.Abs(r1-27) > 4 {
		t.Fatalf("1-client insert = %.1f ops/s, want ~27", r1)
	}
	if !(r1 > r32 && r32 > r192) {
		t.Fatalf("insert per-client rate not decaying: %v %v %v", r1, r32, r192)
	}
	// Aggregate keeps growing through 192 (no server saturation).
	if !(192*r192 > 32*r32 && 32*r32 > r1) {
		t.Fatalf("insert aggregate not growing: %v %v %v", r1, 32*r32, 192*r192)
	}
}

func TestFig2QueryFasterThanInsert(t *testing.T) {
	q := func(p *sim.Proc, svc *Service, c, i int) error {
		_, err := svc.Get(p, "t", "pk", fmt.Sprintf("row-%d-%d", c, i))
		return err
	}
	ins := func(p *sim.Proc, svc *Service, c, i int) error {
		return svc.Insert(p, "t", PaddedEntity("pk", fmt.Sprintf("n-%d-%d", c, i), 4096))
	}
	if rq, ri := opsRate(t, 8, 60, 4096, q), opsRate(t, 8, 60, 4096, ins); rq <= ri {
		t.Fatalf("query (%.1f) not faster than insert (%.1f)", rq, ri)
	}
}

func TestFig2UpdateAggregatePeaksAt8(t *testing.T) {
	upd := func(p *sim.Proc, svc *Service, c, i int) error {
		return svc.Update(p, "t", PaddedEntity("pk", "row-0-0", 4096))
	}
	a1 := opsRate(t, 1, 40, 4096, upd)
	a8 := opsRate(t, 8, 40, 4096, upd)
	a64 := opsRate(t, 64, 30, 4096, upd)
	// per-client → aggregate
	if !(a8*8 > a1 && a8*8 > a64*64) {
		t.Fatalf("update aggregate not peaked at 8: %v %v %v", a1, a8*8, a64*64)
	}
	// "high initial throughput with only 1 client"
	if a1 < 60 {
		t.Fatalf("1-client update = %.1f ops/s, want high (>60)", a1)
	}
}

func TestFig2DeleteAggregatePeaksAt128(t *testing.T) {
	del := func(p *sim.Proc, svc *Service, c, i int) error {
		return svc.Delete(p, "t", "pk", fmt.Sprintf("row-%d-%d", c, i))
	}
	a32 := opsRate(t, 32, 40, 4096, del) * 32
	a128 := opsRate(t, 128, 30, 4096, del) * 128
	a192 := opsRate(t, 192, 30, 4096, del) * 192
	if !(a128 > a32 && a128 > a192) {
		t.Fatalf("delete aggregate not peaked at 128: %v %v %v", a32, a128, a192)
	}
}

// TestInsert64kTimeouts reproduces the Section 3.2 observation: with 64 kB
// entities and 128/192 concurrent clients, a sizable minority of clients hit
// server timeout exceptions before finishing 500 inserts, while 64 clients
// all finish.
func TestInsert64kTimeouts(t *testing.T) {
	survivors := func(clients int) int {
		eng, svc := newSvc()
		svc.CreateTable("t")
		finished := 0
		for c := 0; c < clients; c++ {
			c := c
			eng.Spawn("client", func(p *sim.Proc) {
				for i := 0; i < 500; i++ {
					e := PaddedEntity("pk", fmt.Sprintf("r-%d-%d", c, i), 65536)
					if err := svc.Insert(p, "t", e); err != nil {
						if storerr.IsCode(err, storerr.CodeTimeout) {
							return // client aborts its run, as in the paper
						}
						t.Errorf("unexpected: %v", err)
						return
					}
				}
				finished++
			})
		}
		eng.Run()
		return finished
	}
	if got := survivors(64); got != 64 {
		t.Fatalf("64-client survivors = %d, want all 64", got)
	}
	s128 := survivors(128)
	if s128 < 70 || s128 > 120 {
		t.Fatalf("128-client survivors = %d, want ~94 (paper)", s128)
	}
	s192 := survivors(192)
	if s192 < 60 || s192 > 130 {
		t.Fatalf("192-client survivors = %d, want ~89 (paper)", s192)
	}
	// Guard against gross regressions only: the overload feedback loop
	// (aborts lower the attached count, which lowers rho) settles at a
	// survivor count whose seed-to-seed spread routinely puts s192 10-25
	// above s128, so the bound leaves that much room.
	if s192 >= s128+30 {
		t.Fatalf("far more survivors at higher concurrency: %d vs %d", s192, s128)
	}
}

// TestPropertyFilterTimeouts reproduces Section 6.1: querying a ~220k-entity
// partition with property filters at 32-way concurrency times out more often
// than not, while a single filter query succeeds.
func TestPropertyFilterTimeouts(t *testing.T) {
	eng, svc := newSvc()
	svc.CreateTable("t")
	for i := 0; i < 220000; i++ {
		svc.Backdoor("t", &Entity{PartitionKey: "pk", RowKey: fmt.Sprintf("r%06d", i),
			Props: map[string]Prop{"A": IntProp(int64(i % 100))}})
	}
	pred := func(e *Entity) bool { return e.Props["A"].Int == 7 }

	var soloErr error
	var soloHits int
	eng.Spawn("solo", func(p *sim.Proc) {
		out, err := svc.QueryFilter(p, "t", "pk", pred)
		soloErr, soloHits = err, len(out)
	})
	eng.Run()
	if soloErr != nil {
		t.Fatalf("solo filter query failed: %v", soloErr)
	}
	if soloHits != 2200 {
		t.Fatalf("solo filter hits = %d, want 2200", soloHits)
	}

	eng2 := sim.NewEngine()
	svc2 := New(eng2, simrand.New(2), Config{})
	svc2.CreateTable("t")
	for i := 0; i < 220000; i++ {
		svc2.Backdoor("t", &Entity{PartitionKey: "pk", RowKey: fmt.Sprintf("r%06d", i),
			Props: map[string]Prop{"A": IntProp(int64(i % 100))}})
	}
	timeouts := 0
	for c := 0; c < 32; c++ {
		eng2.Spawn("scan", func(p *sim.Proc) {
			if _, err := svc2.QueryFilter(p, "t", "pk", pred); storerr.IsCode(err, storerr.CodeTimeout) {
				timeouts++
			}
		})
	}
	eng2.Run()
	if timeouts <= 16 {
		t.Fatalf("32-way filter timeouts = %d, want over half", timeouts)
	}
}

func TestTimeoutsCounter(t *testing.T) {
	eng, svc := newSvc()
	svc.CreateTable("t")
	for i := 0; i < 220000; i++ {
		svc.Backdoor("t", &Entity{PartitionKey: "pk", RowKey: fmt.Sprintf("r%d", i)})
	}
	for c := 0; c < 32; c++ {
		eng.Spawn("scan", func(p *sim.Proc) {
			_, _ = svc.QueryFilter(p, "t", "pk", func(*Entity) bool { return false })
		})
	}
	eng.Run()
	if svc.Timeouts() == 0 {
		t.Fatal("timeout counter did not advance")
	}
}

func TestPartitionSize(t *testing.T) {
	eng, svc := newSvc()
	svc.CreateTable("t")
	eng.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			_ = svc.Insert(p, "t", PaddedEntity("pk", fmt.Sprintf("r%d", i), 256))
		}
	})
	eng.Run()
	if svc.PartitionSize("t", "pk") != 10 {
		t.Fatalf("partition size = %d", svc.PartitionSize("t", "pk"))
	}
	if svc.PartitionSize("t", "other") != 0 {
		t.Fatal("empty partition nonzero")
	}
}

// TestFaultRatesMatchConfig: the reqpath admission faults added to the table
// service fire at their configured probabilities (5σ binomial tolerance).
func TestFaultRatesMatchConfig(t *testing.T) {
	const pConn, pBusy = 0.12, 0.08
	const n = 4000
	eng := sim.NewEngine()
	svc := New(eng, simrand.New(5), Config{ConnFailProb: pConn, ServerBusyProb: pBusy})
	svc.CreateTable("t")
	var conn, busy int
	eng.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			err := svc.Insert(p, "t", PaddedEntity("pk", fmt.Sprintf("rk-%06d", i), 1024))
			switch {
			case err == nil:
			case storerr.IsCode(err, storerr.CodeConnection):
				conn++
			case storerr.IsCode(err, storerr.CodeServerBusy):
				busy++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}
	})
	eng.Run()
	check := func(name string, got int, want float64) {
		sigma := math.Sqrt(want * (1 - want) / n)
		if rate := float64(got) / n; math.Abs(rate-want) > 5*sigma {
			t.Errorf("%s rate %.4f, want %.3f (±%.4f)", name, rate, want, 5*sigma)
		}
	}
	check("conn-fail", conn, pConn)
	// The busy stage only sees requests that survived the conn stage.
	check("server-busy", busy, pBusy*(1-pConn))
}
