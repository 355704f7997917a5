package main

import (
	"sort"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/storage/reqpath"
)

// perLayer lists the metrics a traced run reports, in BENCHMARK.json order.
// Every workload reports every one; a layer the workload bypasses reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim.events_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.pending_peak", "count"},
	{"sim.procs_per_op", "count"},
	{"sim.workers_peak", "count"},
	{"sim.self_share", "ratio"},
	{"netsim.flows_per_op", "count"},
	{"netsim.active_flows_peak", "count"},
	{"netsim.self_share", "ratio"},
	{"storage.requests_per_op", "count"},
	{"storage.error_share", "ratio"},
	{"storage.virt_p50_ms", "ms"},
	{"storage.virt_p99_ms", "ms"},
	{"storage.self_share", "ratio"},
	{"azure.attempts_per_op", "count"},
	{"azure.self_share", "ratio"},
	{"modis.success_share", "ratio"},
	{"modis.timeout_share", "ratio"},
	{"modis.storage_retries_per_task", "count"},
	{"modis.self_share", "ratio"},
	{"wire.self_share", "ratio"},
	{"wire.serve_us_p50", "us"},
	{"wire.parse_write_us_p50", "us"},
	{"wire.gate_wait_us_p50", "us"},
	{"wire.gate_wait_us_p99", "us"},
	{"wire.engine_us_p50", "us"},
	{"wire.transport_us_p50", "us"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.sched_lat_p99_us", "us"},
	{"runtime.goroutines_peak", "count"},
	{"trace.unattributed_share", "ratio"},
	{"trace.overhead", "ratio"},
}

// tracedMetrics fills the --trace 1 metrics: the median over traced rounds
// of each per-layer value, and the tracing overhead as the plain rounds'
// median ops/s over the traced rounds'.
func tracedMetrics(m map[string]metric, plain, traced []roundStats) {
	vals := map[string][]float64{}
	for _, r := range traced {
		ops := float64(r.ops)
		v := map[string]float64{}
		for k, x := range r.layers {
			v[k] = x
		}
		if ev := v["sim.events_per_op"] * ops; ev > 0 {
			v["sim.ns_per_event"] = float64(r.wall.Nanoseconds()) / r.slowdown / ev
		}
		for _, lp := range layerPackages {
			v[lp.layer+".self_share"] = r.profile.layers[lp.layer]
		}
		v["trace.unattributed_share"] = r.profile.layers[""]
		if r.counters.totalCPU > 0 {
			v["runtime.gc_cpu_share"] = r.counters.gcCPU / r.counters.totalCPU
		}
		v["runtime.alloc_bytes_per_op"] = float64(r.counters.allocBytes) / ops
		v["runtime.sched_lat_p99_us"] = histQuantile(r.counters.schedLat, 0.99) * 1e6
		v["runtime.goroutines_peak"] = float64(r.goroutinesPeak)
		for _, pl := range perLayer {
			vals[pl.name] = append(vals[pl.name], v[pl.name])
		}
	}
	for _, pl := range perLayer {
		m[pl.name] = metric{median(vals[pl.name]), pl.unit}
	}
	m["trace.overhead"] = metric{median(rates(plain)) / median(rates(traced)), "ratio"}
}

// storageTap observes every request the storage services of one cloud
// complete, in virtual time.
type storageTap struct {
	lat      []time.Duration
	requests uint64
	errors   uint64
}

// tapStorage subscribes a tap to each storage pipeline of c.
func tapStorage(c *azure.Cloud) *storageTap {
	t := &storageTap{}
	for _, name := range azure.StorageServices {
		c.StoragePipeline(name).AddHook(t.observe)
	}
	return t
}

func (t *storageTap) observe(e reqpath.Event) {
	t.requests++
	if e.Err != nil {
		t.errors++
	}
	t.lat = append(t.lat, e.Latency)
}

// addLayers writes the storage.* metrics for a round of ops.
func (t *storageTap) addLayers(l map[string]float64, ops uint64) {
	if t.requests == 0 {
		return
	}
	sort.Slice(t.lat, func(i, j int) bool { return t.lat[i] < t.lat[j] })
	ms := func(q float64) float64 {
		return float64(t.lat[int(q*float64(len(t.lat)-1))]) / float64(time.Millisecond)
	}
	l["storage.requests_per_op"] = float64(t.requests) / float64(ops)
	l["storage.error_share"] = float64(t.errors) / float64(t.requests)
	l["storage.virt_p50_ms"] = ms(0.50)
	l["storage.virt_p99_ms"] = ms(0.99)
}
