// Package chaos is a deterministic fault-campaign engine layered over the
// fabric, network and storage simulations. It injects the failure classes of
// the paper's §5 production study — host crashes (killing resident VMs and
// forcing fabric re-acquisition), transient host degradation windows,
// rack-level network partitions, and storage-service brownouts/blackouts —
// as scheduled or stochastic events, pairs each injection with a repair
// timer, and accumulates a per-campaign Report reproducing the §5 failure
// taxonomy (counts by class, MTTR, work lost vs. recovered).
//
// Determinism: every fault class draws from its own named stream forked as
// "chaos/<class>" from the campaign root. Forking is label-based, so merely
// enabling chaos — or enabling one class — never perturbs the draws of any
// other stream in the simulation: all chaos-free traces stay bit-identical
// (pinned by the golden-trace tests in internal/core).
package chaos

import (
	"fmt"
	"time"

	"azureobs/internal/azure"
	"azureobs/internal/fabric"
	"azureobs/internal/netsim"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/reqpath"
)

// Class names a §5 failure class.
type Class string

// Failure classes, matching the taxonomy of the paper's eight-month
// ModisAzure failure study.
const (
	ClassHostCrash       Class = "host crash"
	ClassHostDegrade     Class = "degraded host"
	ClassRackPartition   Class = "rack partition"
	ClassStorageBrownout Class = "storage brownout"
	ClassStorageBlackout Class = "storage blackout"
)

// Classes lists the failure classes in canonical report order.
var Classes = []Class{
	ClassHostCrash, ClassHostDegrade, ClassRackPartition,
	ClassStorageBrownout, ClassStorageBlackout,
}

// PartitionEps is the residual link capacity during a rack partition. The
// max-min solver requires strictly positive capacities, so a partition
// squeezes NICs to a crawl (1 KB/s — a 4 KB queue message takes minutes)
// rather than literally zero.
const PartitionEps = 1 * netsim.KBps

// Process is one stochastic fault process: incidents arrive Poisson with the
// given mean gap; each incident is repaired after a uniformly drawn delay.
// A zero MeanInterarrival disables the process (and its stream draws
// nothing).
type Process struct {
	MeanInterarrival time.Duration
	RepairLo         time.Duration
	RepairHi         time.Duration
}

// Enabled reports whether the process injects anything.
func (p Process) Enabled() bool { return p.MeanInterarrival > 0 }

func (p Process) repair(rng *simrand.RNG) time.Duration {
	if p.RepairHi <= p.RepairLo {
		return p.RepairLo
	}
	return simrand.Duration(simrand.Uniform{
		Lo: p.RepairLo.Seconds(), Hi: p.RepairHi.Seconds()}, rng)
}

// ScriptEvent is one deterministic scheduled injection — regression tests
// use scripts to place a fault at an exact instant.
type ScriptEvent struct {
	At    time.Duration
	Class Class
	// Host targets ClassHostCrash / ClassHostDegrade.
	Host int
	// Rack targets ClassRackPartition.
	Rack int
	// Service targets the storage classes ("blob", "table", "queue", "sql").
	Service string
	// Repair is the outage duration; defaults to 30 minutes.
	Repair time.Duration
	// Factor is the ClassHostDegrade slowdown; defaults to 5.
	Factor float64
}

// Config is a fault-campaign plan: one stochastic process per class plus an
// optional script.
type Config struct {
	HostCrash       Process
	HostDegrade     Process
	RackPartition   Process
	StorageBlackout Process
	StorageBrownout Process

	// DegradeLo/DegradeHi bound the slowdown factor of stochastic
	// degradation windows; defaults 4–6.5 (the fabric episode calibration).
	DegradeLo, DegradeHi float64

	// Services are the storage services eligible for outages; defaults to
	// all four.
	Services []string

	// Script is the deterministic injection schedule, run alongside any
	// stochastic processes.
	Script []ScriptEvent

	// Horizon stops stochastic injection (repairs still run); zero means
	// no limit.
	Horizon time.Duration
}

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool {
	return c.HostCrash.Enabled() || c.HostDegrade.Enabled() ||
		c.RackPartition.Enabled() || c.StorageBlackout.Enabled() ||
		c.StorageBrownout.Enabled() || len(c.Script) > 0
}

// DefaultConfig returns a §5-shaped campaign plan: crashes every couple of
// days somewhere in the fleet, rarer rack partitions and storage outages,
// repair times from minutes to hours. Rates are per-datacenter, calibrated
// so a multi-week ModisAzure campaign sees a handful of incidents per class.
func DefaultConfig() Config {
	return Config{
		HostCrash:       Process{MeanInterarrival: 40 * time.Hour, RepairLo: 15 * time.Minute, RepairHi: 2 * time.Hour},
		HostDegrade:     Process{MeanInterarrival: 80 * time.Hour, RepairLo: 2 * time.Hour, RepairHi: 12 * time.Hour},
		RackPartition:   Process{MeanInterarrival: 120 * time.Hour, RepairLo: 5 * time.Minute, RepairHi: 45 * time.Minute},
		StorageBlackout: Process{MeanInterarrival: 160 * time.Hour, RepairLo: 2 * time.Minute, RepairHi: 20 * time.Minute},
		StorageBrownout: Process{MeanInterarrival: 60 * time.Hour, RepairLo: 10 * time.Minute, RepairHi: 90 * time.Minute},
		DegradeLo:       4.0,
		DegradeHi:       6.5,
	}
}

// Engine runs one fault campaign against a cloud.
type Engine struct {
	cloud  *azure.Cloud
	cfg    Config
	rng    *simrand.RNG
	report *Report

	partitioned map[int][]netsim.Bandwidth // rack → saved NIC capacities
	inOutage    map[string]bool            // service → outage active
}

// New builds a campaign engine over the cloud. rng should be a stream forked
// for chaos alone (e.g. root.Fork("chaos")); each fault class forks its own
// "chaos/<class>" sub-stream from it.
func New(cloud *azure.Cloud, rng *simrand.RNG, cfg Config) *Engine {
	if cfg.DegradeLo < 1 {
		cfg.DegradeLo = 4.0
	}
	if cfg.DegradeHi < cfg.DegradeLo {
		cfg.DegradeHi = cfg.DegradeLo + 2.5
	}
	if len(cfg.Services) == 0 {
		cfg.Services = azure.StorageServices
	}
	return &Engine{
		cloud:       cloud,
		cfg:         cfg,
		rng:         rng,
		report:      newReport(),
		partitioned: make(map[int][]netsim.Bandwidth),
		inOutage:    make(map[string]bool),
	}
}

// Report returns the campaign's accumulating failure taxonomy.
func (e *Engine) Report() *Report { return e.report }

// Start spawns the injection daemons and schedules any scripted events. Call
// once, before (or at) time zero of the campaign run.
func (e *Engine) Start() {
	eng := e.cloud.Engine
	if e.cfg.HostCrash.Enabled() {
		e.spawnProcess("chaos/crash", e.cfg.HostCrash, e.injectCrash)
	}
	if e.cfg.HostDegrade.Enabled() {
		e.spawnProcess("chaos/degrade", e.cfg.HostDegrade, e.injectDegrade)
	}
	if e.cfg.RackPartition.Enabled() {
		e.spawnProcess("chaos/partition", e.cfg.RackPartition, e.injectPartition)
	}
	if e.cfg.StorageBlackout.Enabled() {
		e.spawnProcess("chaos/blackout", e.cfg.StorageBlackout, e.injectBlackout)
	}
	if e.cfg.StorageBrownout.Enabled() {
		e.spawnProcess("chaos/brownout", e.cfg.StorageBrownout, e.injectBrownout)
	}
	if len(e.cfg.Script) > 0 {
		srng := e.rng.Fork("chaos/script")
		for _, ev := range e.cfg.Script {
			ev := ev
			eng.ScheduleDaemon(ev.At, func() { e.injectScripted(ev, srng) })
		}
	}
}

// spawnProcess runs one stochastic fault process as a daemon actor:
// Poisson gaps on the class's own stream, one injection per arrival.
func (e *Engine) spawnProcess(label string, proc Process, inject func(rng *simrand.RNG, repair time.Duration)) {
	f := &faultProcess{e: e, proc: proc, rng: e.rng.Fork(label), inject: inject}
	f.a.BindDaemon(e.cloud.Engine, label)
	f.onArrival = f.arrive
	f.a.Go(f.wait)
}

// faultProcess is one stochastic fault process's state machine.
type faultProcess struct {
	a      sim.Actor
	e      *Engine
	proc   Process
	rng    *simrand.RNG
	inject func(rng *simrand.RNG, repair time.Duration)

	onArrival func() // cached: injects when the gap ends
}

func (f *faultProcess) wait() {
	gap := simrand.Duration(simrand.Exponential{
		Rate: 1 / f.proc.MeanInterarrival.Seconds()}, f.rng)
	f.a.Sleep(gap, f.onArrival)
}

func (f *faultProcess) arrive() {
	if h := f.e.cfg.Horizon; h > 0 && f.a.Now() > h {
		f.a.Finish()
		return
	}
	f.inject(f.rng, f.proc.repair(f.rng))
	f.wait()
}

// pickHost draws a host index and linearly probes to the next live host, so
// the draw count per injection is constant regardless of fleet health.
func (e *Engine) pickHost(rng *simrand.RNG) *fabric.Host {
	hosts := e.cloud.DC.Hosts()
	idx := rng.IntN(len(hosts))
	for i := 0; i < len(hosts); i++ {
		h := hosts[(idx+i)%len(hosts)]
		if !h.Down() {
			return h
		}
	}
	return nil
}

func (e *Engine) injectCrash(rng *simrand.RNG, repair time.Duration) {
	h := e.pickHost(rng)
	if h == nil {
		return // whole fleet down; nothing left to crash
	}
	e.crashHost(h, repair)
}

func (e *Engine) crashHost(h *fabric.Host, repair time.Duration) {
	dc := e.cloud.DC
	failed := dc.CrashHost(h)
	e.report.inject(ClassHostCrash, repair)
	e.report.VMsKilled += uint64(len(failed))
	e.cloud.Engine.AfterDaemon(repair, func() {
		dc.RebootHost(h)
		e.report.repairedInc(ClassHostCrash)
	})
}

func (e *Engine) injectDegrade(rng *simrand.RNG, repair time.Duration) {
	h := e.pickHost(rng)
	factor := simrand.Uniform{Lo: e.cfg.DegradeLo, Hi: e.cfg.DegradeHi}.Sample(rng)
	if h == nil {
		return // draws above keep the stream aligned even when skipping
	}
	e.degradeHost(h, factor, repair)
}

func (e *Engine) degradeHost(h *fabric.Host, factor float64, repair time.Duration) {
	dc := e.cloud.DC
	dc.DegradeHost(h, factor)
	e.report.inject(ClassHostDegrade, repair)
	e.cloud.Engine.AfterDaemon(repair, func() {
		dc.RestoreHost(h, factor)
		e.report.repairedInc(ClassHostDegrade)
	})
}

func (e *Engine) injectPartition(rng *simrand.RNG, repair time.Duration) {
	rack := rng.IntN(e.cloud.DC.Racks())
	e.partitionRack(rack, repair)
}

// partitionRack squeezes every NIC in the rack to PartitionEps and restores
// the saved capacities on repair. An already-partitioned rack is left alone
// (the incident is still counted as injected and immediately repaired, so
// the books stay balanced).
func (e *Engine) partitionRack(rack int, repair time.Duration) {
	dc := e.cloud.DC
	e.report.inject(ClassRackPartition, repair)
	if e.partitioned[rack] != nil {
		e.report.repairedInc(ClassRackPartition)
		return
	}
	hosts := dc.RackHosts(rack)
	if len(hosts) == 0 {
		e.report.repairedInc(ClassRackPartition)
		return
	}
	saved := make([]netsim.Bandwidth, len(hosts))
	for i, h := range hosts {
		saved[i] = h.NIC.Capacity()
		dc.Net().SetLinkCapacity(h.NIC, PartitionEps)
	}
	e.partitioned[rack] = saved
	e.cloud.Engine.AfterDaemon(repair, func() {
		for i, h := range hosts {
			dc.Net().SetLinkCapacity(h.NIC, saved[i])
		}
		delete(e.partitioned, rack)
		e.report.repairedInc(ClassRackPartition)
	})
}

func (e *Engine) injectBlackout(rng *simrand.RNG, repair time.Duration) {
	svc := e.cfg.Services[rng.IntN(len(e.cfg.Services))]
	e.serviceOutage(svc, ClassStorageBlackout, repair)
}

func (e *Engine) injectBrownout(rng *simrand.RNG, repair time.Duration) {
	svc := e.cfg.Services[rng.IntN(len(e.cfg.Services))]
	e.serviceOutage(svc, ClassStorageBrownout, repair)
}

// serviceOutage puts one storage service into brownout or blackout until the
// repair fires. Overlapping outages on the same service collapse: the second
// incident is counted and instantly repaired.
func (e *Engine) serviceOutage(svc string, class Class, repair time.Duration) {
	e.report.inject(class, repair)
	if e.inOutage[svc] {
		e.report.repairedInc(class)
		return
	}
	mode := reqpathMode(class)
	pl := e.cloud.StoragePipeline(svc)
	pl.SetOutage(mode)
	e.inOutage[svc] = true
	e.cloud.Engine.AfterDaemon(repair, func() {
		pl.SetOutage(reqpath.OutageNone)
		delete(e.inOutage, svc)
		e.report.repairedInc(class)
	})
}

func (e *Engine) injectScripted(ev ScriptEvent, rng *simrand.RNG) {
	repair := ev.Repair
	if repair <= 0 {
		repair = 30 * time.Minute
	}
	switch ev.Class {
	case ClassHostCrash:
		h := e.hostByID(ev.Host)
		if h != nil && !h.Down() {
			e.crashHost(h, repair)
		}
	case ClassHostDegrade:
		factor := ev.Factor
		if factor <= 1 {
			factor = 5.0
		}
		if h := e.hostByID(ev.Host); h != nil {
			e.degradeHost(h, factor, repair)
		}
	case ClassRackPartition:
		e.partitionRack(ev.Rack, repair)
	case ClassStorageBlackout:
		e.serviceOutage(ev.Service, ClassStorageBlackout, repair)
	case ClassStorageBrownout:
		e.serviceOutage(ev.Service, ClassStorageBrownout, repair)
	default:
		panic(fmt.Sprintf("chaos: unknown scripted class %q", ev.Class))
	}
	_ = rng // scripted events draw nothing today; the stream is reserved
}

func (e *Engine) hostByID(id int) *fabric.Host {
	hosts := e.cloud.DC.Hosts()
	if id < 0 || id >= len(hosts) {
		return nil
	}
	return hosts[id]
}
