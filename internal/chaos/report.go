package chaos

import (
	"fmt"
	"io"
	"time"

	"azureobs/internal/metrics"
	"azureobs/internal/storage/reqpath"
)

func reqpathMode(class Class) reqpath.Outage {
	if class == ClassStorageBlackout {
		return reqpath.OutageBlackout
	}
	return reqpath.OutageBrownout
}

// Report is a campaign's accumulating failure taxonomy, in the shape of the
// paper's §5 study: incident counts by class, mean time to repair, VMs
// killed, and the work the campaign lost to crashes vs. later recovered
// through re-execution.
type Report struct {
	injected map[Class]uint64
	repaired map[Class]uint64
	mttr     map[Class]*metrics.Summary

	// VMsKilled counts VM instances failed by host crashes.
	VMsKilled uint64

	// WorkLost is task execution time thrown away when a crash killed the
	// worker mid-task; WorkRecovered is the portion of those tasks' nominal
	// work that later completed on another attempt. Both are credited by the
	// campaign layer (modis), which is what observes executions.
	WorkLost      time.Duration
	WorkRecovered time.Duration

	// Violations is the invariant-harness violation count, filled in by the
	// campaign driver after the run from sim.Invariants.
	Violations uint64
}

func newReport() *Report {
	return &Report{
		injected: make(map[Class]uint64),
		repaired: make(map[Class]uint64),
		mttr:     make(map[Class]*metrics.Summary),
	}
}

func (r *Report) inject(c Class, repair time.Duration) {
	r.injected[c]++
	s := r.mttr[c]
	if s == nil {
		s = &metrics.Summary{}
		r.mttr[c] = s
	}
	s.AddDuration(repair)
}

func (r *Report) repairedInc(c Class) { r.repaired[c]++ }

// Injected returns the number of incidents injected for a class.
func (r *Report) Injected(c Class) uint64 { return r.injected[c] }

// Repaired returns the number of incidents whose repair completed inside the
// campaign horizon. Injected minus repaired is the number of incidents still
// open at the end of the run.
func (r *Report) Repaired(c Class) uint64 { return r.repaired[c] }

// TotalInjected sums incidents across every class.
func (r *Report) TotalInjected() uint64 {
	var n uint64
	for _, c := range Classes {
		n += r.injected[c]
	}
	return n
}

// MTTR returns the mean time to repair for a class (the mean of the repair
// delays paired with its injections), or 0 with no incidents.
func (r *Report) MTTR(c Class) time.Duration {
	s := r.mttr[c]
	if s == nil || s.N() == 0 {
		return 0
	}
	return time.Duration(s.Mean() * float64(time.Second))
}

// AddWorkLost credits crash-lost execution time (campaign layer).
func (r *Report) AddWorkLost(d time.Duration) { r.WorkLost += d }

// AddWorkRecovered credits re-executed work that a crash had interrupted
// (campaign layer).
func (r *Report) AddWorkRecovered(d time.Duration) { r.WorkRecovered += d }

// Render writes the §5-style taxonomy table.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "%-20s %9s %9s %12s\n", "failure class", "injected", "repaired", "mean TTR")
	for _, c := range Classes {
		if r.injected[c] == 0 {
			continue
		}
		fmt.Fprintf(w, "%-20s %9d %9d %12s\n",
			c, r.injected[c], r.repaired[c], r.MTTR(c).Round(time.Second))
	}
	fmt.Fprintf(w, "\nVMs killed by crashes: %d\n", r.VMsKilled)
	fmt.Fprintf(w, "work lost to crashes:  %s\n", r.WorkLost.Round(time.Second))
	fmt.Fprintf(w, "work recovered:        %s\n", r.WorkRecovered.Round(time.Second))
	fmt.Fprintf(w, "invariant violations:  %d\n", r.Violations)
}
