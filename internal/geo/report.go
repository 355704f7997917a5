package geo

import (
	"fmt"
	"sort"
	"time"

	"azureobs/internal/metrics"
)

// Report aggregates one world run into the quantities the fig8geo
// experiments anchor: traffic counters, the replication-lag distribution,
// the stale-read fraction under the configured consistency mode, and — when
// a kill was scripted — failover RTO, RPO and routing-flap counts.
type Report struct {
	Regions int

	ReadsOK      int64
	ReadsFailed  int64
	WritesOK     int64
	WritesFailed int64
	RemoteReads  int64
	Commits      int64
	Applies      int64

	LagMeanSec float64
	LagMaxSec  float64
	LagP50Sec  float64 // when cfg.LagSamples
	LagP95Sec  float64 // when cfg.LagSamples

	StaleReads int64   // when cfg.RecordReads
	StaleFrac  float64 // stale / successful reads

	RTOSec       float64 // when cfg.KillAt > 0
	RPOSec       float64
	LostWrites   int64
	KilledFlaps  int64
	TotalFlaps   int64
	KilledFailed int64 // failed reads in the killed region's population
	DeadVMs      int64

	MeanLatencySec  float64
	FinalVirtualSec float64
}

// Report computes the post-run aggregate. Call after Run; it walks all
// regions' state in region order.
func (w *World) Report() *Report {
	cfg := &w.cfg
	rep := &Report{Regions: cfg.Regions}
	var lag, lat metrics.Summary
	var lagS *metrics.Sample
	if cfg.LagSamples {
		lagS = metrics.NewSample(4096)
	}
	for i, r := range w.regions {
		p := r.pop
		rep.ReadsOK += p.readsOK
		rep.ReadsFailed += p.readsFailed
		rep.WritesOK += p.writesOK
		rep.WritesFailed += p.writesFailed
		rep.RemoteReads += p.remoteReads
		rep.TotalFlaps += r.router.flaps
		lat.Merge(&p.latency)
		if i != w.store.primary {
			rs := w.store.replicas[i]
			rep.Applies += rs.applies
			lag.Merge(&rs.lag)
			if lagS != nil && rs.lagS != nil {
				for _, v := range rs.lagS.Values() {
					lagS.Add(v)
				}
			}
		}
	}
	rep.Commits = int64(len(w.store.commits))
	if lag.N() > 0 {
		rep.LagMeanSec = lag.Mean()
		rep.LagMaxSec = lag.Max()
	}
	if lagS != nil && lagS.N() > 0 {
		rep.LagP50Sec = lagS.Quantile(0.50)
		rep.LagP95Sec = lagS.Quantile(0.95)
	}
	if lat.N() > 0 {
		rep.MeanLatencySec = lat.Mean()
	}
	rep.FinalVirtualSec = w.Now().Seconds()

	if cfg.RecordReads {
		perName := w.commitsByName()
		for _, r := range w.regions {
			for _, rec := range r.pop.recs {
				if rec.ver < freshVersion(perName[rec.name], rec.at) {
					rep.StaleReads++
				}
			}
		}
		if rep.ReadsOK > 0 {
			rep.StaleFrac = float64(rep.StaleReads) / float64(rep.ReadsOK)
		}
	}

	if cfg.KillAt > 0 {
		killT := cfg.KillAt
		kr := w.regions[cfg.KillRegion]
		rep.KilledFlaps = kr.router.flaps
		rep.KilledFailed = kr.pop.readsFailed
		rep.DeadVMs = int64(kr.deadVMs)
		if kr.pop.firstFailover > 0 {
			rep.RTOSec = (kr.pop.firstFailover - killT).Seconds()
		}
		// RPO: writes acknowledged by killT that no secondary had applied
		// yet. Had the primary never come back, these would be gone; the
		// exposure window is killT minus the earliest such commit.
		earliest := time.Duration(-1)
		for v, rec := range w.store.commits {
			if rec.Commit > killT {
				break
			}
			visible := false
			for s := range w.regions {
				if s == w.store.primary {
					continue
				}
				rs := w.store.replicas[s]
				if v < len(rs.applyAt) && rs.applyAt[v] <= killT {
					visible = true
					break
				}
			}
			if !visible {
				rep.LostWrites++
				if earliest < 0 {
					earliest = rec.Commit
				}
			}
		}
		if rep.LostWrites > 0 {
			rep.RPOSec = (killT - earliest).Seconds()
		}
	}
	return rep
}

// commitsByName splits the commit log into per-name version-ordered
// sublists.
func (w *World) commitsByName() [][]commitRec {
	perName := make([][]commitRec, w.cfg.HotNames)
	for _, rec := range w.store.commits {
		perName[rec.Name] = append(perName[rec.Name], rec)
	}
	return perName
}

// freshVersion returns the latest version of a name committed at or before
// t (0 when the seed version is still the latest). recs is version- and
// commit-time-ordered.
func freshVersion(recs []commitRec, t time.Duration) uint64 {
	i := sort.Search(len(recs), func(i int) bool { return recs[i].Commit > t })
	if i == 0 {
		return 0
	}
	return recs[i-1].Version
}

// CheckConsistency is the linearizability-style checker behind the
// consistency property tests. It asserts, from the recorded read log and
// replication bookkeeping:
//
//   - Read-your-writes on the primary: every read served by the primary
//     replica observed exactly the latest version committed at or before
//     its linearization instant — never stale.
//
//   - Prefix explainability on secondaries: every read served by a
//     secondary observed exactly the version determined by that replica's
//     applied prefix at the serve instant. A secondary can be behind, but
//     only by its replication lag — it can never serve a version out of
//     prefix order or one newer than its watermark.
//
//   - Prefix integrity: each secondary applied versions 1,2,3,… in order,
//     never before their commit instants, with nondecreasing apply times.
//
// Requires cfg.RecordReads. Returns the first violation found, nil if the
// run is consistent.
func (w *World) CheckConsistency() error {
	if !w.cfg.RecordReads {
		return fmt.Errorf("geo: CheckConsistency needs Config.RecordReads")
	}
	commits := w.store.commits
	for s, rs := range w.store.replicas {
		if s == w.store.primary {
			continue
		}
		if len(rs.applyAt) > len(commits) {
			return fmt.Errorf("geo: region %d applied %d versions, only %d committed",
				s, len(rs.applyAt), len(commits))
		}
		for v := range rs.applyAt {
			if rs.applyAt[v] < commits[v].Commit {
				return fmt.Errorf("geo: region %d applied version %d at %v before its commit at %v",
					s, v+1, rs.applyAt[v], commits[v].Commit)
			}
			if v > 0 && rs.applyAt[v] < rs.applyAt[v-1] {
				return fmt.Errorf("geo: region %d apply times regress at version %d", s, v+1)
			}
		}
	}
	perName := w.commitsByName()
	for _, r := range w.regions {
		for _, rec := range r.pop.recs {
			want := w.expectedVersion(rec.served, rec.name, rec.at, perName)
			if rec.ver != want {
				return fmt.Errorf("geo: read of %q at %v served by region %d saw version %d, explainable version is %d",
					w.names[rec.name], rec.at, rec.served, rec.ver, want)
			}
		}
	}
	return nil
}

// expectedVersion is the one version a read served by region s at instant t
// must have observed: the globally freshest commit for primary serves, the
// applied-prefix-limited freshest for secondary serves.
func (w *World) expectedVersion(s, name int, t time.Duration, perName [][]commitRec) uint64 {
	if s == w.store.primary {
		return freshVersion(perName[name], t)
	}
	rs := w.store.replicas[s]
	// Watermark: how many versions this replica had applied by t.
	wm := uint64(sort.Search(len(rs.applyAt), func(i int) bool { return rs.applyAt[i] > t }))
	// Latest version of the name within the applied prefix.
	recs := perName[name]
	i := sort.Search(len(recs), func(i int) bool { return recs[i].Version > wm })
	if i == 0 {
		return 0
	}
	return recs[i-1].Version
}
