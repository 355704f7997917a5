// Command azvalidate is the reproduction self-check: it runs every
// registered experiment at the calibrated validation scale, compares the
// anchors against the paper, and exits non-zero if any drifts beyond its
// tolerance. It is the command a CI pipeline runs to catch calibration
// regressions. Every simulation it runs checks the kernel invariants
// fail-fast, so a violation stops the run instead of skewing an anchor.
//
// Usage:
//
//	azvalidate            # exit 0 iff all anchors hold
//	azvalidate -v         # also print every anchor
//	azvalidate -workers 4 # shard experiment cells over 4 scheduler workers
//	azvalidate -run fig1,tcp
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"azureobs/internal/core"
	"azureobs/internal/modis"
	"azureobs/internal/sim"
	_ "azureobs/internal/wire"
)

// check is one validated anchor with its tolerance (relative unless abs).
type check struct {
	exp    string
	anchor core.Anchor
	relTol float64
	absTol float64 // used when > 0 (for near-zero or qualitative paper values)
}

func (c check) ok() bool {
	if c.absTol > 0 {
		d := c.anchor.Measured - c.anchor.Paper
		if d < 0 {
			d = -d
		}
		return d <= c.absTol
	}
	return c.anchor.RelErr() <= c.relTol
}

// policy assigns each anchor its tolerance. Calibrated figure anchors get
// tight relative bands; small-sample and rare-event anchors get absolute
// bands; the qualitative ablation anchors (nominal paper values rather than
// published measurements) get bands wide enough to test the claim's shape,
// not a digit.
func policy(exp string, a core.Anchor) check {
	c := check{exp: exp, anchor: a, relTol: 0.15}
	switch exp {
	case "fig1":
		c.relTol = 0.10
	case "table1":
		// Small-sample cells are noisy; the startup-failure-rate anchor is a
		// percentage near 3 and gets an absolute band.
		if a.Name == "startup failure rate" {
			c.relTol, c.absTol = 0, 2.5
		} else {
			c.relTol = 0.25
		}
	case "tcp":
		// The bandwidth tail is a small binomial count at validation scale.
		if a.Name == "P(bandwidth ≤ 30 MB/s)" {
			c.relTol, c.absTol = 0, 7
		}
	case "propfilter":
		c.relTol, c.absTol = 0, 30
	case "queuedepth":
		// Invariance claim: deep/shallow rate ratio stays ~1.
		c.relTol = 0.10
	case "replication":
		// Nominal k-fold aggregate claim, not a published measurement.
		c.relTol = 0.20
	case "sqlcompare":
		// Qualitative claim: SQL throttles connections at 128 clients. Any
		// nonzero throttle count up to twice the nominal value passes.
		c.relTol, c.absTol = 0, 63
	case "startup":
		// Section 4.1 gives a 60-100 s per-instance band around 80.
		c.relTol = 0.25
	case "fig2sizes", "fig3sizes":
		// "Similar shapes" across sizes: worst deviation is a percentage
		// with paper value 0, so it needs an absolute band.
		c.relTol, c.absTol = 0, 35
	case "fig8geo":
		// Nominal geo-model design points (the paper stops at one
		// datacenter), so the bands test the claim's shape. The zero- and
		// small-count anchors need absolute bands: RelErr auto-passes on a
		// paper value of 0, and the lost-write/RPO anchors are rare-event
		// quantities of a single kill.
		c.relTol = 0.25
		switch a.Name {
		case "stale read fraction (read-your-writes)":
			// The read-your-writes guarantee itself: exactly zero stale reads.
			c.relTol, c.absTol = 0, 0.001
		case "region-kill RPO exposure":
			c.relTol, c.absTol = 0, 0.2
		case "acked writes lost at region kill":
			c.relTol, c.absTol = 0, 2
		case "failover routing flaps (kill+repair)":
			// The flap-discipline regression: kill + repair, nothing else.
			c.relTol, c.absTol = 0, 0.5
		}
	case "chaosreport":
		switch a.Name {
		case "invariant violations (all scenarios)":
			// The headline: zero violations. RelErr auto-passes on a paper
			// value of 0, so this one must be an absolute band.
			c.relTol, c.absTol = 0, 0.5
		case "host crashes injected":
			// A Poisson count with mean ~19 at validation scale; 3σ is ~70%.
			c.relTol = 0.75
		case "host crash mean time to repair":
			c.relTol = 0.5
		case "throughput under full chaos vs baseline":
			// The survival claim: retries + replacement VMs keep most of the
			// fault-free throughput. Allow the chaos tax.
			c.relTol = 0.35
		}
	}
	return c
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the testable entry point: cmd smoke tests drive it in-process.
func run(args []string) int {
	fs := flag.NewFlagSet("azvalidate", flag.ExitOnError)
	verbose := fs.Bool("v", false, "print every anchor")
	seed := fs.Uint64("seed", 42, "root random seed")
	workers := fs.Int("workers", 1, "scheduler workers for independent experiment cells")
	runNames := fs.String("run", "", "comma-separated experiment names (default: all registered + modis)")
	fs.Parse(args)

	// Every engine the checked experiments build panics on its first
	// invariant violation (event-time monotonicity, resource levels, queue
	// conservation, VM state transitions), so a run that passes its anchors
	// also passed every kernel check on the way.
	sim.SetDefaultInvariants(true)

	names := core.Names()
	withModis := true
	if *runNames != "" {
		names = nil
		withModis = false
		for _, n := range strings.Split(*runNames, ",") {
			n = strings.TrimSpace(n)
			if n == "modis" {
				withModis = true
				continue
			}
			if _, ok := core.Lookup(n); !ok {
				fmt.Fprintf(os.Stderr, "azvalidate: unknown experiment %q (have: %s, modis)\n",
					n, strings.Join(core.Names(), ", "))
				return 2
			}
			names = append(names, n)
		}
	}

	var checks []check
	proto := core.Proto{Seed: *seed, Workers: *workers, Scale: core.ValidateScale}
	for _, name := range names {
		e, _ := core.Lookup(name)
		for _, a := range e.Run(proto).Anchors() {
			checks = append(checks, policy(name, a))
		}
	}

	if withModis {
		// Table 2 / Fig 7 at ~2% campaign scale: shares within tolerance; the
		// rare-event classes get absolute bands.
		st := modis.NewCampaign(modis.Config{Seed: *seed, Days: 21, Workers: 60,
			MeanRequestGap: 100 * time.Minute, MeanTasksPerRequest: 140}).Run()
		for _, a := range st.Anchors() {
			c := check{exp: "modis", anchor: a}
			switch {
			case a.Name == "Fig 7 peak daily timeout share":
				// Few episodes fit a 21-day window; just require a sane range.
				c.absTol = 16
			case a.Paper >= 4: // the big shares
				c.relTol = 0.10
			default: // rare classes: absolute bands
				c.absTol = a.Paper + 1
			}
			checks = append(checks, c)
		}
	}

	failed := 0
	for _, c := range checks {
		if !c.ok() {
			failed++
			fmt.Printf("FAIL  [%s] %s\n", c.exp, c.anchor)
		} else if *verbose {
			fmt.Printf("ok    [%s] %s\n", c.exp, c.anchor)
		}
	}
	fmt.Printf("\nazvalidate: %d/%d anchors within tolerance\n", len(checks)-failed, len(checks))
	if failed > 0 {
		return 1
	}
	return 0
}
