// Package fabric models the physical datacenter (hosts, racks, network
// placement quality, degradation episodes) and the Windows Azure fabric
// controller: deployments, role instances, and the five lifecycle phases the
// paper measures in Table 1 (create, run, add, suspend, delete).
package fabric

import (
	"time"

	"azureobs/internal/netsim"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
)

// netQualityClass is the placement quality of a host's network path to the
// rest of the datacenter. The three-class mixture reproduces the Fig. 5
// distribution of pair bandwidth: ~50% of pairs ≥90 MB/s (both endpoints
// well placed), ~15% ≤30 MB/s (at least one endpoint congested).
type netQualityClass int

const (
	netGood netQualityClass = iota
	netFair
	netBad
)

// Host is one physical machine. VMs placed on a degraded host run slower by
// the current slowdown factor — the mechanism behind the paper's "VM task
// execution timeout" observations (Section 5.2).
type Host struct {
	ID   int
	Rack int

	// NIC is the host's GigE adapter (shared by its VMs).
	NIC *netsim.Link

	// netQuality scales the bandwidth this host can sustain to a remote
	// peer, in (0, 1]; sampled from the placement mixture at boot.
	netQuality float64

	// slowdown is the current compute dilation factor; 1 when healthy.
	slowdown float64

	// down marks a crashed host: its VMs have failed and the placement
	// cursor skips it until RebootHost.
	down bool

	// residents are the VMs currently placed on this host; a crash fails
	// every starting/ready one of them.
	residents []*VM
}

// Slowdown returns the host's current compute dilation factor (≥ 1).
func (h *Host) Slowdown() float64 { return h.slowdown }

// Degraded reports whether the host is currently in a degradation episode.
func (h *Host) Degraded() bool { return h.slowdown > 1 }

// Down reports whether the host is crashed and awaiting repair.
func (h *Host) Down() bool { return h.down }

// Residents returns the number of VMs currently placed on the host.
func (h *Host) Residents() int { return len(h.residents) }

// detach removes a VM from the host's resident list (it failed or was
// deleted).
func (h *Host) detach(vm *VM) {
	for i, r := range h.residents {
		if r == vm {
			h.residents = append(h.residents[:i], h.residents[i+1:]...)
			return
		}
	}
}

// NetQuality returns the host's placement-quality multiplier in (0, 1].
func (h *Host) NetQuality() float64 { return h.netQuality }

// sampleNetQuality draws a host's placement quality from the calibrated
// three-class mixture.
func sampleNetQuality(rng *simrand.RNG) float64 {
	u := rng.Float64()
	switch {
	case u < 0.715: // good: pair of goods lands in 90-117 MB/s
		return simrand.Uniform{Lo: 0.72, Hi: 0.94}.Sample(rng)
	case u < 0.92: // fair: 30-90 MB/s
		return simrand.Uniform{Lo: 0.24, Hi: 0.72}.Sample(rng)
	default: // bad: ≤30 MB/s tail (congested/oversubscribed placement)
		return simrand.Uniform{Lo: 0.04, Hi: 0.24}.Sample(rng)
	}
}

// DegradationConfig parameterises the host-degradation process: episodes
// arrive as a Poisson process; each strikes a random fraction of hosts with
// a 4-6x slowdown for a bounded duration. The defaults are calibrated so
// that, with the ModisAzure 4x-mean task timeout policy, the daily timeout
// share spans 0-16% of executions as in Fig. 7.
type DegradationConfig struct {
	// MeanInterarrival is the mean time between episode onsets.
	MeanInterarrival time.Duration
	// FracLo/FracHi bound the fraction of hosts affected per episode.
	FracLo, FracHi float64
	// SlowLo/SlowHi bound the compute dilation during an episode.
	SlowLo, SlowHi float64
	// DurLo/DurHi bound the episode duration.
	DurLo, DurHi time.Duration
}

// DefaultDegradation returns the calibrated episode process.
func DefaultDegradation() DegradationConfig {
	return DegradationConfig{
		MeanInterarrival: 60 * time.Hour,
		FracLo:           0.02,
		FracHi:           0.35,
		SlowLo:           4.0,
		SlowHi:           6.5,
		DurLo:            2 * time.Hour,
		DurHi:            18 * time.Hour,
	}
}

// startDegradation runs the episode process forever on the engine, as a
// daemon actor: it holds no goroutine, so an engine abandoned at its
// horizon leaves nothing parked behind.
func (dc *Datacenter) startDegradation(cfg DegradationConfig) {
	d := &degrader{dc: dc, cfg: cfg, rng: dc.rng.Fork("degradation")}
	d.a.BindDaemon(dc.eng, "degradation")
	d.onEpisode = d.episode
	d.a.Go(d.wait)
}

// degrader is the episode process's state machine: wait an exponential
// gap, strike, repeat.
type degrader struct {
	a   sim.Actor
	dc  *Datacenter
	cfg DegradationConfig
	rng *simrand.RNG

	onEpisode func() // cached: strikes when the gap ends
}

func (d *degrader) wait() {
	gap := simrand.Duration(simrand.Exponential{Rate: 1 / d.cfg.MeanInterarrival.Seconds()}, d.rng)
	d.a.Sleep(gap, d.onEpisode)
}

func (d *degrader) episode() {
	cfg, rng := &d.cfg, d.rng
	frac := simrand.Uniform{Lo: cfg.FracLo, Hi: cfg.FracHi}.Sample(rng)
	slow := simrand.Uniform{Lo: cfg.SlowLo, Hi: cfg.SlowHi}.Sample(rng)
	dur := simrand.Duration(simrand.Uniform{
		Lo: cfg.DurLo.Seconds(), Hi: cfg.DurHi.Seconds()}, rng)
	victims := d.dc.pickHosts(rng, frac)
	for _, h := range victims {
		h.slowdown = slow
	}
	d.dc.episodes++
	d.dc.eng.AfterDaemon(dur, func() {
		for _, h := range victims {
			if h.slowdown == slow {
				h.slowdown = 1
			}
		}
	})
	d.wait()
}

// pickHosts samples ⌈frac×N⌉ distinct hosts.
func (dc *Datacenter) pickHosts(rng *simrand.RNG, frac float64) []*Host {
	n := int(frac*float64(len(dc.hosts)) + 0.5)
	if n < 1 {
		n = 1
	}
	if n > len(dc.hosts) {
		n = len(dc.hosts)
	}
	perm := rng.Perm(len(dc.hosts))
	out := make([]*Host, n)
	for i := 0; i < n; i++ {
		out[i] = dc.hosts[perm[i]]
	}
	return out
}
