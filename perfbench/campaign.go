package main

import (
	"fmt"
	"math"
	"time"

	"azureobs/internal/modis"
	"azureobs/internal/oplog"
	"azureobs/internal/sim"
)

// The campaign workload is a multi-week ModisAzure campaign (§4–5 of the
// paper) on one engine: portal, service manager and 64 worker processes
// pulling reprojection, download and reduction tasks through the queue
// service. It is the only workload that leans on blocking sim.Proc
// handoffs, the modis package and the queue service; it never touches the
// wire layer and moves few bytes through netsim. An op is one task
// execution. At 63 days a round is about 242k executions, long enough that
// the run-to-run spread of a 21-day campaign (20%, dominated by start-up)
// washes out.
const (
	campaignDays    = 63
	campaignWorkers = 64
	// successTolerance is azvalidate's relative band on Table 2's large
	// outcome shares.
	successTolerance = 0.10
)

var campaignWorkload = workload{
	name:   "campaign",
	window: 2000,
	build:  buildCampaign,
}

type campaignRound struct {
	c   *modis.Campaign
	eng *sim.Engine
	st  *modis.Stats

	tap                    *storageTap // traced rounds only
	pendingPeak, flowsPeak int
}

func buildCampaign(cfg roundConfig, tr *tracer) (round, error) {
	days := int(math.Round(campaignDays * cfg.scale))
	if days < 1 {
		days = 1
	}
	c := modis.NewCampaign(modis.Config{
		Seed:                cfg.seed,
		Days:                days,
		Workers:             campaignWorkers,
		MeanRequestGap:      100 * time.Minute,
		MeanTasksPerRequest: 140,
	})
	// Recording mode: the task-conservation check at the end of Run counts
	// a violation instead of panicking, and verify reports it.
	c.EnableInvariants(false)
	r := &campaignRound{c: c, eng: c.Cloud().Engine}
	if tr != nil {
		r.tap = tapStorage(c.Cloud())
	}
	return r, nil
}

func (r *campaignRound) run(m *meter) error {
	// The campaign logs one record per task execution.
	r.c.Log.Subscribe(func(oplog.Record) { m.op() })
	if m.traced {
		net := r.c.Cloud().DC.Net()
		m.sample = func() {
			r.pendingPeak = max(r.pendingPeak, r.eng.Pending())
			r.flowsPeak = max(r.flowsPeak, net.ActiveFlows())
		}
	}
	r.st = r.c.Run()
	return nil
}

func (r *campaignRound) verify() (outcome, error) {
	st := r.st
	execs := st.TotalExecs()
	out := outcome{ops: execs, failed: st.StorageErrors.Total(), hash: fmt.Sprintf("%016x", st.Fingerprint())}
	if v := r.c.InvariantViolations(); v > 0 {
		return out, fmt.Errorf("campaign: %d invariant violations (task conservation: delivered = executions + crash-aborted + in flight)", v)
	}
	if execs == 0 {
		return out, fmt.Errorf("campaign: no task executions")
	}
	found := false
	for _, a := range st.Anchors() {
		if a.Name != "outcome share: "+string(modis.OutcomeSuccess) {
			continue
		}
		found = true
		if a.RelErr() > successTolerance {
			return out, fmt.Errorf("campaign: success share %.2f%% is %.1f%% from Table 2's %.2f%% (tolerance %.0f%%)",
				a.Measured, a.RelErr()*100, a.Paper, successTolerance*100)
		}
	}
	if !found {
		return out, fmt.Errorf("campaign: no Table 2 success-share anchor")
	}
	if r.tap != nil {
		cloud := r.c.Cloud()
		n := float64(execs)
		out.layers = map[string]float64{
			"sim.events_per_op":              float64(r.eng.EventsFired()) / n,
			"sim.procs_per_op":               float64(r.eng.ProcsSpawned()) / n,
			"sim.workers_peak":               float64(r.eng.WorkersPeak()),
			"sim.pending_peak":               float64(r.pendingPeak),
			"netsim.flows_per_op":            float64(cloud.Blob.Downloads()+cloud.Blob.Uploads()) / n,
			"netsim.active_flows_peak":       float64(r.flowsPeak),
			"azure.attempts_per_op":          float64(r.tap.requests) / n,
			"modis.success_share":            st.SuccessShare(),
			"modis.timeout_share":            st.TimeoutShare(),
			"modis.storage_retries_per_task": float64(st.StorageRetries) / n,
		}
		r.tap.addLayers(out.layers, execs)
	}
	return out, nil
}

func (r *campaignRound) close() {}
