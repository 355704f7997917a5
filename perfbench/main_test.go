package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the result lines must match.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesWorkloads(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}
	var layers []specMetric
	for _, pl := range perLayer {
		layers = append(layers, specMetric{pl.name, pl.unit})
	}
	if !sameMetrics(s.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", s.PerLayer, layers)
	}
}

func sameMetrics(a, b []specMetric) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShortRuns runs every workload briefly at a small scale, untraced and
// traced, and checks each result line against BENCHMARK.json and the
// layers each workload is expected to load or bypass.
func TestShortRuns(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "0.4",
					"--trace", trace, "--scale", "0.05"}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\n%s%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				want := s.EndToEnd
				if trace == "1" {
					want = s.PerLayer
				}
				var got []specMetric
				for name, m := range res.Metrics {
					got = append(got, specMetric{name, m.Unit})
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 {
						t.Errorf("%s = %v", name, m.Value)
					}
					if trace == "0" && m.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", name)
					}
				}
				sortMetrics(got)
				sortMetrics(want)
				if !sameMetrics(got, want) {
					t.Errorf("metrics %v, want %v", got, want)
				}
				if trace == "1" {
					checkLayers(t, w.name, res.Metrics)
				}
			})
		}
	}
}

func sortMetrics(ms []specMetric) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
}

// checkLayers asserts the layer map: wire timings only on wire, modis and
// process spawns only on the campaign, netsim flows never on crowd.
func checkLayers(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	for name, v := range m {
		switch {
		case strings.HasPrefix(name, "wire.") && name != "wire.self_share":
			if (v.Value > 0) != (workload == "wire") {
				t.Errorf("%s: %s = %v", workload, name, v.Value)
			}
		case name == "sim.procs_per_op" || name == "modis.success_share":
			if (v.Value > 0) != (workload == "campaign") {
				t.Errorf("%s: %s = %v", workload, name, v.Value)
			}
		case name == "netsim.flows_per_op" && workload == "crowd":
			if v.Value != 0 {
				t.Errorf("crowd: %s = %v", name, v.Value)
			}
		}
	}
	for _, name := range []string{"sim.events_per_op", "storage.requests_per_op", "trace.overhead"} {
		if m[name].Value <= 0 {
			t.Errorf("%s: %s = %v", workload, name, m[name].Value)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "crowd", "--trace", "2"},
		{"--workload", "crowd", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", args, out.String())
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"azureobs/internal/sim.(*Engine).Run":                           "azureobs/internal/sim",
		"azureobs/internal/storage/tablesvc.(*GetFlat).Begin":           "azureobs/internal/storage/tablesvc",
		"azureobs/internal/sim.(*Queue[go.shape.*uint8]).Put":           "azureobs/internal/sim",
		"azureobs/internal/sim.NewQueue[*azureobs/internal/modis.Task]": "azureobs/internal/sim",
		"runtime.mallocgc":             "runtime",
		"net/http.(*conn).serve.func1": "net/http",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
	for fn, want := range map[string]string{
		"azureobs/internal/storage/reqpath.(*CtxFlat).Begin": "storage",
		"azureobs/internal/simrand.(*RNG).Float64":           "",
		"azureobs/internal/netsim.(*Fabric).solve":           "netsim",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var spinSink float64

// spinForProfile burns CPU in its own frame: the loop touches only
// registers, so neither calls nor race instrumentation take the samples.
//
//go:noinline
func spinForProfile(d time.Duration) float64 {
	x := 0.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 100000; i++ {
			x = x*1.0000001 + 1
		}
	}
	return x
}

// TestSelfTimes profiles a spin loop and finds, through go tool pprof, the
// function that burned the CPU.
func TestSelfTimes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spinSink = spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	self, err := selfTimes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spin, total time.Duration
	for fn, v := range self {
		total += v
		if strings.HasSuffix(fn, ".spinForProfile") {
			spin += v
		}
	}
	if total == 0 {
		t.Skip("no samples")
	}
	if spin*2 < total {
		t.Errorf("spinForProfile has %v of %v; by function: %v", spin, total, self)
	}
}
