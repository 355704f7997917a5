package core

import (
	"fmt"

	"azureobs/internal/azure"
	"azureobs/internal/core/sched"
	"azureobs/internal/fabric"
	"azureobs/internal/sim"
	"azureobs/internal/storage/storerr"
	"azureobs/internal/storage/tablesvc"
)

// Fig2Config scales the table storage experiment. The paper's protocol
// (Section 3.2): each client inserts 500 entities into one partition
// (~220k total at 192 clients), queries the same entity 500 times by keys,
// updates one shared entity 100 times unconditionally, then deletes its own
// 500 entities. Entity sizes 1-64 kB.
type Fig2Config struct {
	Proto
	EntitySize int // bytes (paper figure: 4096)
	Inserts    int // per client (paper: 500)
	Queries    int // per client (paper: 500)
	Updates    int // per client (paper: 100)
}

// DefaultFig2Config is the paper-scale protocol at 4 kB entities.
func DefaultFig2Config() Fig2Config {
	p := Defaults()
	p.Clients = DefaultClientCounts()
	return Fig2Config{
		Proto:      p,
		EntitySize: 4096,
		Inserts:    500,
		Queries:    500,
		Updates:    100,
	}
}

func (cfg Fig2Config) withDefaults() Fig2Config {
	if cfg.Clients == nil {
		cfg.Clients = DefaultClientCounts()
	}
	if cfg.EntitySize == 0 {
		cfg.EntitySize = 4096
	}
	if cfg.Inserts == 0 {
		cfg.Inserts = 500
	}
	if cfg.Queries == 0 {
		cfg.Queries = 500
	}
	if cfg.Updates == 0 {
		cfg.Updates = 100
	}
	return cfg
}

// Fig2Point holds per-client ops/s for the four operations at one
// concurrency level, plus the count of clients that finished all inserts
// (all of them except in the 64 kB overload regime).
type Fig2Point struct {
	Clients   int
	InsertOps float64
	QueryOps  float64
	UpdateOps float64
	DeleteOps float64

	InsertSurvivors int
	DeleteSurvivors int
}

// Fig2Result is the reproduced Fig. 2 dataset.
type Fig2Result struct {
	EntitySize int
	Points     []Fig2Point
}

// RunFig2 executes the table operation sweep. Each concurrency level is an
// independent cell (its own cloud, seed salted by the level alone), so the
// ladder shards over cfg.Workers with bit-identical results at any width.
func RunFig2(cfg Fig2Config) *Fig2Result {
	cfg = cfg.withDefaults()
	return &Fig2Result{
		EntitySize: cfg.EntitySize,
		Points: sched.Map(sched.New(cfg.Workers), len(cfg.Clients), func(i int) Fig2Point {
			return runFig2Level(cfg, cfg.Clients[i])
		}),
	}
}

// phaseRate runs one closed-loop phase over all clients and returns the mean
// per-client ops rate and the number of clients that completed every op.
// A client that hits a server timeout aborts its run (the paper counts these
// as clients that "have encountered timeout exceptions").
func phaseRate(cloud *azure.Cloud, clients, opsEach int,
	op func(p *sim.Proc, client, i int) error) (rate float64, survivors int) {
	var totalOps int
	var totalSec float64
	for c := 0; c < clients; c++ {
		c := c
		cloud.Engine.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			start := p.Now()
			done := 0
			for i := 0; i < opsEach; i++ {
				if err := op(p, c, i); err != nil {
					if storerr.IsCode(err, storerr.CodeTimeout) {
						break
					}
					panic(err)
				}
				done++
			}
			totalOps += done
			totalSec += (p.Now() - start).Seconds()
			if done == opsEach {
				survivors++
			}
		})
	}
	cloud.Engine.Run()
	return float64(totalOps) / totalSec, survivors
}

// runFig2Level runs one concurrency level's four phases on a fresh cloud.
func runFig2Level(cfg Fig2Config, n int) Fig2Point {
	ccfg := azure.Config{Seed: cfg.Seed + uint64(n)*104729}
	ccfg.Fabric = fabric.DefaultConfig()
	ccfg.Fabric.Degradation = false
	cloud := azure.NewCloud(ccfg)
	cloud.Table.CreateTable("bench")
	pt := Fig2Point{Clients: n}

	// Insert phase.
	pt.InsertOps, pt.InsertSurvivors = phaseRate(cloud, n, cfg.Inserts, func(p *sim.Proc, c, i int) error {
		e := tablesvc.PaddedEntity("part", fmt.Sprintf("row-%03d-%04d", c, i), cfg.EntitySize)
		return cloud.Table.Insert(p, "bench", e)
	})

	// The paper's partition holds ~220k entities after the insert phase;
	// top up so later phases see that density regardless of client count.
	backfill(cloud, 220000, cfg.EntitySize)

	// Query phase: each client queries the same entity repeatedly by keys.
	pt.QueryOps, _ = phaseRate(cloud, n, cfg.Queries, func(p *sim.Proc, c, i int) error {
		_, err := cloud.Table.Get(p, "bench", "part", fmt.Sprintf("row-%03d-0000", c))
		return err
	})

	// Update phase: all clients update one shared entity, unconditionally.
	pt.UpdateOps, _ = phaseRate(cloud, n, cfg.Updates, func(p *sim.Proc, c, i int) error {
		return cloud.Table.Update(p, "bench",
			tablesvc.PaddedEntity("part", "row-000-0000", cfg.EntitySize))
	})

	// Delete phase: each client removes the entities it inserted.
	pt.DeleteOps, pt.DeleteSurvivors = phaseRate(cloud, n, cfg.Inserts, func(p *sim.Proc, c, i int) error {
		err := cloud.Table.Delete(p, "bench", "part", fmt.Sprintf("row-%03d-%04d", c, i))
		if storerr.IsCode(err, storerr.CodeNotFound) {
			return nil // client aborted its insert phase early
		}
		return err
	})
	return pt
}

// backfill fills the bench partition up to total entities without spending
// simulated time.
func backfill(cloud *azure.Cloud, total, size int) {
	have := cloud.Table.PartitionSize("bench", "part")
	for i := 0; have+i < total; i++ {
		e := tablesvc.PaddedEntity("part", fmt.Sprintf("fill-%06d", i), size)
		cloud.Table.Backdoor("bench", e)
	}
}

// Anchors compares against the published Fig. 2 narrative.
func (r *Fig2Result) Anchors() []Anchor {
	var out []Anchor
	find := func(n int) *Fig2Point {
		for i := range r.Points {
			if r.Points[i].Clients == n {
				return &r.Points[i]
			}
		}
		return nil
	}
	p1, p128, p192 := find(1), find(128), find(192)
	if p1 != nil {
		out = append(out, Anchor{"insert per-client @1", "ops/s", 27, p1.InsertOps})
	}
	// The paper reports where aggregate throughput peaks: Update at 8
	// concurrent clients, Delete at 128 (Section 3.2).
	if len(r.Points) >= 4 {
		argmax := func(agg func(Fig2Point) float64) int {
			best, bestN := -1.0, 0
			for _, p := range r.Points {
				if v := agg(p); v > best {
					best, bestN = v, p.Clients
				}
			}
			return bestN
		}
		out = append(out, Anchor{"update aggregate peak location", "clients", 8,
			float64(argmax(func(p Fig2Point) float64 { return p.UpdateOps * float64(p.Clients) }))})
		out = append(out, Anchor{"delete aggregate peak location", "clients", 128,
			float64(argmax(func(p Fig2Point) float64 { return p.DeleteOps * float64(p.Clients) }))})
	}
	if p128 != nil && p192 != nil {
		out = append(out, Anchor{"delete aggregate @128 vs @192 ratio (>1)", "x",
			1.1, p128.DeleteOps * 128 / (p192.DeleteOps * 192)})
	}
	if r.EntitySize >= 65536 {
		if p128 != nil {
			out = append(out, Anchor{"64kB insert survivors @128", "clients", 94, float64(p128.InsertSurvivors)})
		}
		if p192 != nil {
			out = append(out, Anchor{"64kB insert survivors @192", "clients", 89, float64(p192.InsertSurvivors)})
		}
	}
	return out
}
