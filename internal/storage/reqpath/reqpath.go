// Package reqpath is the shared request pipeline of the simulated storage
// services. Every storage operation — blob, table, queue and SQL — flows
// through the same conceptual path the paper's measurements exercise:
//
//	admission (fault injection + request latency) →
//	service work (station contention, payload transfer, service faults) →
//	reply (uniform storerr taxonomy) →
//	hooks (per-request observation)
//
// The pipeline packages that path as composable stages so a service's op
// methods contain only semantics (lookups, state changes), never fault or
// transfer plumbing:
//
//   - FaultStage: conn-fail / server-busy on admission, read-fail /
//     corrupt-read / overload-timeout inside the body, each gated by a
//     per-op probability.
//   - StationStage: contention at a station.Station.
//   - TransferStage: payload cost, either through a netsim fabric path or a
//     fixed per-connection bandwidth.
//   - ReplyStage: the single Fault → storerr.Code mapping every service
//     shares, so the azure client's RetryPolicy classifies faults from any
//     service identically.
//
// Each stage is written once, on CtxFlat: blob, table, queue and SQL ops
// are flat state machines over it, run either by a kernel-driven sim.Actor
// or, for their blocking forms, by the calling process through
// sim.Proc.Drive.
//
// Determinism: every stage draws from its own named simrand stream (forked
// as "reqpath/<stage>"), and disabled stages (probability 0 or 1) draw
// nothing. Enabling a fault on one stage therefore never perturbs the draws
// of another stage, and adding fault injection to one service never shifts
// another service's trace.
package reqpath

import (
	"time"

	"azureobs/internal/netsim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/storerr"
)

// Fault identifies an injected fault class.
type Fault int

// Fault classes injected by the pipeline (Table 2's transient categories).
const (
	// FaultConn is a transport failure before the request lands.
	FaultConn Fault = iota
	// FaultBusy is the throttling reply of an overloaded service.
	FaultBusy
	// FaultRead is a server-side read failure, surfaced as a timeout.
	FaultRead
	// FaultCorrupt is a client-side integrity failure after a download.
	FaultCorrupt
	// FaultTimeout is a server-side deadline expiry.
	FaultTimeout
)

// Code is the ReplyStage: the single mapping from injected fault classes to
// the storerr taxonomy. All services answer a given fault with the same
// code, which is what lets the azure RetryPolicy treat them uniformly.
func (f Fault) Code() storerr.Code {
	switch f {
	case FaultConn:
		return storerr.CodeConnection
	case FaultBusy:
		return storerr.CodeServerBusy
	case FaultRead, FaultTimeout:
		return storerr.CodeTimeout
	case FaultCorrupt:
		return storerr.CodeCorruptRead
	}
	return storerr.CodeInternal
}

// Outage is a service-wide health state imposed from outside the pipeline —
// the chaos engine's storage brownout/blackout windows (the paper's §5
// blob-write and SQL-connectivity incidents).
type Outage int

// Outage modes.
const (
	// OutageNone is normal service.
	OutageNone Outage = iota
	// OutageBrownout degrades the service: requests are throttled with
	// CodeServerBusy with probability BrownoutBusyProb.
	OutageBrownout
	// OutageBlackout takes the service down: every request fails immediately
	// with CodeConnection (retryable — short blackouts are absorbed by
	// client retry policies; long ones shed work, as in §5).
	OutageBlackout
)

// BrownoutBusyProb is the per-request throttle probability during a
// brownout.
const BrownoutBusyProb = 0.75

// FaultConfig is the per-service fault injection plan. All probabilities
// default to zero (no faults, no random draws).
type FaultConfig struct {
	// ConnFailProb fails a request with CodeConnection before any service
	// work happens.
	ConnFailProb float64
	// ServerBusyProb throttles a request with CodeServerBusy after the
	// request latency but before the body runs.
	ServerBusyProb float64
	// ReadFailProb fails read-class ops server-side (CodeTimeout) where the
	// service calls CtxFlat.ReadFault.
	ReadFailProb float64
	// CorruptReadProb corrupts downloaded payloads (CodeCorruptRead) where
	// the service calls CtxFlat.CorruptRead.
	CorruptReadProb float64
}

// Clamp returns the config with every probability forced into [0, 1]; NaN
// collapses to 0. New applies it, so a pipeline never sees a probability the
// Bernoulli stage cannot handle — arbitrary (fuzzer-shaped) configs are safe.
func (fc FaultConfig) Clamp() FaultConfig {
	fc.ConnFailProb = clamp01(fc.ConnFailProb)
	fc.ServerBusyProb = clamp01(fc.ServerBusyProb)
	fc.ReadFailProb = clamp01(fc.ReadFailProb)
	fc.CorruptReadProb = clamp01(fc.CorruptReadProb)
	return fc
}

func clamp01(p float64) float64 {
	switch {
	case p > 0 && p <= 1:
		return p
	case p > 1:
		return 1
	default: // ≤ 0 or NaN
		return 0
	}
}

// Event is one completed request, delivered to hooks after the reply is
// decided. Latency covers admission through body, faults included.
type Event struct {
	Service string
	Op      string
	Start   time.Duration
	Latency time.Duration
	Err     error
}

// Hook observes completed requests (metrics, oplog, client accounting).
type Hook func(Event)

// Config parameterises one service's pipeline.
type Config struct {
	// Service names the owning service in hook events ("blob", "table", ...).
	Service string
	// Faults is the fault injection plan.
	Faults FaultConfig
	// Latency, when set, is the per-request admission latency slept between
	// the conn-fail and server-busy checks (blob's RequestLatency).
	Latency simrand.Dist
	// Net carries CtxFlat.Transfer payloads; required only by services that
	// price transfers through the shared fabric (blob).
	Net *netsim.Fabric
	// UploadBW / DownloadBW price UploadCost/DownloadCost payloads for
	// services that model a fixed per-connection bandwidth instead of a
	// fabric path (table, queue, SQL).
	UploadBW   netsim.Bandwidth
	DownloadBW netsim.Bandwidth
	// ServerTimeout is the server-side deadline a request burns before a
	// timeout reply (CtxFlat.ServerTimeout, TimeoutErrf).
	ServerTimeout time.Duration
}

// hookSet is shared between a pipeline and all pipelines forked from it, so
// a hook installed on the service-level pipeline also observes requests on
// per-session pipelines (and vice versa), regardless of creation order. The
// outage mode lives here for the same reason: a blackout set on the
// service-level pipeline must bite every session.
type hookSet struct {
	hooks  []Hook
	outage Outage
	// faults, when non-nil, overrides the construction-time fault plan for
	// this pipeline and every fork sharing the hook set — the wire facade's
	// live fault-injection control surface. nil (the default) reads the
	// per-pipeline config, so the override costs healthy runs nothing and
	// perturbs no stream: the Bernoulli stages draw exactly as before until
	// a probability actually changes.
	faults *FaultConfig
}

// Pipeline executes requests for one service endpoint (or one session of
// it). Each fault/latency stage owns a named random stream.
type Pipeline struct {
	cfg  Config
	base *simrand.RNG
	hs   *hookSet

	conn, busy, read, corrupt, timeout, latency, outage *simrand.RNG
}

// New builds a pipeline drawing stage streams from rng. The streams are
// forked with stable "reqpath/<stage>" labels, so they are independent of
// any other fork of rng (station streams, service-internal draws).
func New(rng *simrand.RNG, cfg Config) *Pipeline {
	cfg.Faults = cfg.Faults.Clamp()
	pl := &Pipeline{cfg: cfg, base: rng, hs: &hookSet{}}
	pl.forkStages()
	return pl
}

// ForkN derives a session pipeline with its own stage streams (decorrelated
// by label and index) sharing the parent's config and hooks — blob sessions
// each carry one so concurrent clients draw independently.
func (pl *Pipeline) ForkN(label string, n int) *Pipeline {
	child := &Pipeline{cfg: pl.cfg, base: pl.base.ForkN(label, n), hs: pl.hs}
	child.forkStages()
	return child
}

func (pl *Pipeline) forkStages() {
	pl.conn = pl.base.Fork("reqpath/conn")
	pl.busy = pl.base.Fork("reqpath/busy")
	pl.read = pl.base.Fork("reqpath/read")
	pl.corrupt = pl.base.Fork("reqpath/corrupt")
	pl.timeout = pl.base.Fork("reqpath/timeout")
	pl.latency = pl.base.Fork("reqpath/latency")
	// The outage stream is always forked (label-forking never perturbs other
	// streams) but only drawn from during a brownout, so enabling chaos
	// leaves every healthy-period trace bit-identical.
	pl.outage = pl.base.Fork("reqpath/outage")
}

// AddHook installs a request observer on this pipeline and every pipeline
// sharing its hook set (ForkN parents and children).
func (pl *Pipeline) AddHook(h Hook) { pl.hs.hooks = append(pl.hs.hooks, h) }

// Config returns the pipeline's configuration.
func (pl *Pipeline) Config() Config { return pl.cfg }

// SetOutage imposes (or lifts) a service-wide outage. The mode is shared
// with every session pipeline forked from this one.
func (pl *Pipeline) SetOutage(o Outage) { pl.hs.outage = o }

// Outage returns the current service-wide outage mode.
func (pl *Pipeline) Outage() Outage { return pl.hs.outage }

// SetFaults overrides the fault plan for this pipeline and every fork
// sharing its hook set, effective for subsequent requests — the live
// injection knob behind the wire facade's /control/faults endpoint.
// Changing a probability between zero and non-zero shifts that stage's
// stream draws for later requests (as constructing the service with the
// new plan would); healthy stages stay untouched.
func (pl *Pipeline) SetFaults(fc FaultConfig) {
	fc = fc.Clamp()
	pl.hs.faults = &fc
}

// ResetFaults lifts a SetFaults override, returning every pipeline in the
// hook set to its construction-time fault plan.
func (pl *Pipeline) ResetFaults() { pl.hs.faults = nil }

// faultPlan returns the effective fault plan: the service-wide override
// when one is set, else this pipeline's own config.
func (pl *Pipeline) faultPlan() *FaultConfig {
	if pl.hs.faults != nil {
		return pl.hs.faults
	}
	return &pl.cfg.Faults
}

// hit draws a Bernoulli trial on the stage stream, consuming no randomness
// for the degenerate probabilities — a disabled stage must not perturb
// anything.
func hit(r *simrand.RNG, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Hit(p)
}

func bwCost(size int, bw netsim.Bandwidth) time.Duration {
	if bw <= 0 {
		return 0
	}
	return time.Duration(float64(size) / float64(bw) * float64(time.Second))
}
