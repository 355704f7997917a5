package core

import (
	"time"

	"azureobs/internal/core/sched"
	"azureobs/internal/geo"
)

// fig8geo is the cross-DC artifact family the ROADMAP's multi-datacenter
// item calls for: the paper measures one datacenter, so these anchors are
// nominal design-point values of the geo model (the replication/sqlcompare
// precedent) rather than published measurements. Three scenario worlds run
// as independent cells:
//
//   - "lag": eventual reads with a flash crowd on one region — the
//     replication-lag distribution and the eventual stale-read fraction.
//   - "ryw": read-your-writes mode — every read served by the primary,
//     zero staleness, at the price of a cross-region read share.
//   - "kill": the primary region dies whole and is repaired — failover
//     RTO, RPO exposure, lost-write count and routing-flap discipline.
//
// Each world runs on one engine; traces are bit-identical at every
// scheduler width, pinned by TestGeoEquivalence.

// Fig8GeoConfig sizes the three scenario worlds.
type Fig8GeoConfig struct {
	Proto
	Regions          int
	ClientsPerRegion int
	HotNames         int
	BlobBytes        int64
	MeanThink        time.Duration
	Horizon          time.Duration
	Window           time.Duration
}

// DefaultFig8GeoConfig is the paper-scale protocol: four regions, the
// paper's top concurrency rung in each.
func DefaultFig8GeoConfig() Fig8GeoConfig {
	return Fig8GeoConfig{
		Proto:            Defaults(),
		Regions:          4,
		ClientsPerRegion: 192,
		HotNames:         16,
		BlobBytes:        256 << 10,
		MeanThink:        2 * time.Second,
		Horizon:          240 * time.Second,
		Window:           20 * time.Millisecond,
	}
}

func (cfg Fig8GeoConfig) withDefaults() Fig8GeoConfig {
	def := DefaultFig8GeoConfig()
	if cfg.Regions == 0 {
		cfg.Regions = def.Regions
	}
	if cfg.ClientsPerRegion == 0 {
		cfg.ClientsPerRegion = def.ClientsPerRegion
	}
	if cfg.HotNames == 0 {
		cfg.HotNames = def.HotNames
	}
	if cfg.BlobBytes == 0 {
		cfg.BlobBytes = def.BlobBytes
	}
	if cfg.MeanThink == 0 {
		cfg.MeanThink = def.MeanThink
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = def.Horizon
	}
	if cfg.Window == 0 {
		cfg.Window = def.Window
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return cfg
}

// worldConfig expands scenario i into its geo world. Scenario seeds are
// decorrelated by a salt coprime to the per-region salt inside geo, so no
// two regions across scenarios share a stream root.
func (cfg Fig8GeoConfig) worldConfig(scenario int) geo.Config {
	gc := geo.Config{
		Seed:             cfg.Seed + uint64(scenario)*271_828_181,
		Regions:          cfg.Regions,
		Window:           cfg.Window,
		Horizon:          cfg.Horizon,
		ClientsPerRegion: cfg.ClientsPerRegion,
		MeanThink:        cfg.MeanThink,
		HotNames:         cfg.HotNames,
		BlobBytes:        cfg.BlobBytes,
		RecordReads:      true,
	}
	switch scenario {
	case 0: // replication lag under a flash crowd, eventual reads
		gc.LagSamples = true
		gc.FlashRegion = 1
		gc.FlashStart = cfg.Horizon / 3
		gc.FlashDur = cfg.Horizon / 6
	case 1: // read-your-writes
		gc.ReadMode = geo.ReadPrimary
	case 2: // primary region kill + repair
		gc.KillAt = 2 * cfg.Horizon / 5
		gc.RepairAt = 3 * cfg.Horizon / 5
	}
	return gc
}

// Fig8GeoResult carries the three scenario reports.
type Fig8GeoResult struct {
	Regions int
	Lag     *geo.Report // eventual reads + flash crowd
	RYW     *geo.Report // read-your-writes mode
	Kill    *geo.Report // primary region kill + repair
}

// RunFig8Geo executes the three scenario worlds, sharded over the cell
// scheduler.
func RunFig8Geo(cfg Fig8GeoConfig) *Fig8GeoResult {
	cfg = cfg.withDefaults()
	pool := sched.New(cfg.Workers)
	reports := sched.Map(pool, 3, func(i int) *geo.Report {
		w := geo.NewWorld(cfg.worldConfig(i))
		w.Run()
		return w.Report()
	})
	return &Fig8GeoResult{
		Regions: cfg.Regions,
		Lag:     reports[0],
		RYW:     reports[1],
		Kill:    reports[2],
	}
}

// Anchors reports the geo design points. Paper values are nominal model
// targets calibrated at validation scale, not published measurements — the
// paper stops at one datacenter.
func (r *Fig8GeoResult) Anchors() []Anchor {
	pct := func(n, d int64) float64 {
		if d == 0 {
			return 0
		}
		return 100 * float64(n) / float64(d)
	}
	return []Anchor{
		{"geo replication lag p50", "s", 0.09, r.Lag.LagP50Sec},
		{"geo replication lag p95", "s", 0.13, r.Lag.LagP95Sec},
		{"stale read fraction (eventual)", "%", 4.5, 100 * r.Lag.StaleFrac},
		{"stale read fraction (read-your-writes)", "%", 0, 100 * r.RYW.StaleFrac},
		{"cross-region read share (read-your-writes)", "%", 75, pct(r.RYW.RemoteReads, r.RYW.ReadsOK)},
		{"region-kill failover RTO", "s", 3.2, r.Kill.RTOSec},
		{"region-kill RPO exposure", "s", 0.05, r.Kill.RPOSec},
		{"acked writes lost at region kill", "writes", 1, float64(r.Kill.LostWrites)},
		{"failover routing flaps (kill+repair)", "flaps", 2, float64(r.Kill.KilledFlaps)},
	}
}
