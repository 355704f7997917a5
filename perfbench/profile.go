package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// layerPackages maps the repository's package paths to the layers whose
// self time the traced run reports. A path ending in "/" is a prefix.
var layerPackages = []struct{ layer, path string }{
	{"sim", "azureobs/internal/sim"},
	{"netsim", "azureobs/internal/netsim"},
	{"storage", "azureobs/internal/storage/"},
	{"azure", "azureobs/internal/azure"},
	{"modis", "azureobs/internal/modis"},
	{"wire", "azureobs/internal/wire"},
}

// layerOf returns the layer a function belongs to, or "".
func layerOf(fn string) string {
	pkg := packageOf(fn)
	for _, lp := range layerPackages {
		if pkg == lp.path || (strings.HasSuffix(lp.path, "/") && strings.HasPrefix(pkg, lp.path)) {
			return lp.layer
		}
	}
	return ""
}

// packageOf extracts the import path from a symbol name such as
// "azureobs/internal/sim.(*Engine).Run" or "runtime.mallocgc".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other paths
	}
	start := strings.LastIndexByte(fn, '/') + 1
	if i := strings.IndexByte(fn[start:], '.'); i >= 0 {
		return fn[:start+i]
	}
	return fn
}

// tracer collects the CPU profile of a traced round's measured section.
type tracer struct {
	buf bytes.Buffer
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) startProfile() error {
	t.buf.Reset()
	if err := pprof.StartCPUProfile(&t.buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// cpuShares is a round's sampled CPU time by self time (the leaf frame,
// inlined frames included), as shares of the total.
type cpuShares struct {
	layers   map[string]float64 // by layer; "" holds the unattributed rest
	packages map[string]float64 // by import path
	total    time.Duration      // sampled CPU time
}

// stopProfile ends the profile and attributes its samples.
func (t *tracer) stopProfile() (cpuShares, error) {
	pprof.StopCPUProfile()
	self, err := selfTimes(t.buf.Bytes())
	if err != nil {
		return cpuShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	cs := cpuShares{layers: map[string]float64{}, packages: map[string]float64{}}
	for _, v := range self {
		cs.total += v
	}
	for fn, v := range self {
		if cs.total > 0 {
			share := float64(v) / float64(cs.total)
			cs.layers[layerOf(fn)] += share
			cs.packages[packageOf(fn)] += share
		}
	}
	return cs, nil
}

// top formats the n packages with the largest shares.
func (cs cpuShares) top(n int) string {
	type kv struct {
		pkg   string
		share float64
	}
	var all []kv
	for p, s := range cs.packages {
		all = append(all, kv{p, s})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].share > all[j].share })
	var b strings.Builder
	for i, e := range all {
		if i == n {
			break
		}
		fmt.Fprintf(&b, " %s %.3f", e.pkg, e.share)
	}
	return b.String()
}

// selfTimes sums a CPU profile's self time by function with
// `go tool pprof -top`, which charges each sample to its innermost frame,
// inlined frames included. The profile is written to a temporary file
// under $TMPDIR.
func selfTimes(profile []byte) (map[string]time.Duration, error) {
	f, err := os.CreateTemp("", "perfbench-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(profile)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-unit=ns", f.Name())
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	return parseTop(out)
}

// parseTop reads the rows of `go tool pprof -top -unit=ns` output,
//
//	      flat  flat%   sum%        cum   cum%
//	1200000ns 40.00% 40.00%  1500000ns 50.00%  pkg.Func (inline)
//
// into self time by function name.
func parseTop(out []byte) (map[string]time.Duration, error) {
	self := map[string]time.Duration{}
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", line, err)
		}
		self[f[5]] += time.Duration(ns)
	}
	if !rows {
		return nil, fmt.Errorf("no table in pprof output %q", out)
	}
	return self, nil
}
