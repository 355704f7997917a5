package reqpath

import (
	"time"

	"azureobs/internal/netsim"
	"azureobs/internal/sim"
	"azureobs/internal/simrand"
	"azureobs/internal/storage/station"
	"azureobs/internal/storage/storerr"
)

// CtxFlat is one in-flight request whose stages run as continuations on an
// actor. Services embed one in their per-session (or per-client) request
// state, so a steady-state request allocates nothing. It is the only
// implementation of every stage: a blocking op drives the same state
// machine through sim.Proc.Drive. The split is:
//
//	Begin → AdmitPre → [sleep the returned latency] → AdmitPost →
//	service body stages (Failf / ReadFault / CorruptRead / Visit /
//	Transfer) →
//	Finish
//
// where the caller owns the sleeps on its actor. Visit records the station
// slot the request holds; Abort gives it up when the actor's owner cancels
// it.
type CtxFlat struct {
	pl    *Pipeline
	a     *sim.Actor
	Op    string
	start time.Duration
	st    *station.Station // the station being visited, for Abort
}

// Begin arms the context for one request on actor a, starting now. The
// context holds one request: a Begin before the previous request's Finish
// (or Abort) panics.
func (c *CtxFlat) Begin(pl *Pipeline, op string, a *sim.Actor) {
	if c.a != nil {
		panic("reqpath: " + op + " begun with a request already in flight")
	}
	c.a, c.pl, c.Op, c.start = a, pl, op, a.Now()
}

// AdmitPre is the admission half before the request-latency sleep: the
// outage gate, the conn-fail stage, then the latency draw. On success it
// returns the admission latency the caller must sleep before AdmitPost;
// hasSleep is false when the pipeline has no latency stage (the caller must
// then proceed to AdmitPost without scheduling a wake).
func (c *CtxFlat) AdmitPre() (sleep time.Duration, hasSleep bool, err error) {
	pl := c.pl
	switch pl.hs.outage {
	case OutageBlackout:
		return 0, false, c.fail(FaultConn, "service blackout")
	case OutageBrownout:
		if pl.outage.Hit(BrownoutBusyProb) {
			return 0, false, c.fail(FaultBusy, "service brownout")
		}
	}
	if hit(pl.conn, pl.faultPlan().ConnFailProb) {
		return 0, false, c.fail(FaultConn, "connection reset")
	}
	if pl.cfg.Latency != nil {
		return simrand.Duration(pl.cfg.Latency, pl.latency), true, nil
	}
	return 0, false, nil
}

// AdmitPost is the admission half after the request-latency sleep: the
// server-busy stage.
func (c *CtxFlat) AdmitPost() error {
	if hit(c.pl.busy, c.pl.faultPlan().ServerBusyProb) {
		return c.fail(FaultBusy, "throttled")
	}
	return nil
}

// fail issues the ReplyStage mapping for an injected fault.
func (c *CtxFlat) fail(f Fault, msg string) error {
	return storerr.New(f.Code(), c.Op, msg)
}

// Failf builds a service-semantic error (not-found, conflict, ...) carrying
// the request's op.
func (c *CtxFlat) Failf(code storerr.Code, format string, args ...any) error {
	return storerr.Newf(code, c.Op, format, args...)
}

// ReadFault applies the server-side read-failure stage: with ReadFailProb it
// returns the FaultRead reply, else nil.
func (c *CtxFlat) ReadFault() error {
	if hit(c.pl.read, c.pl.faultPlan().ReadFailProb) {
		return c.fail(FaultRead, "read failed server-side")
	}
	return nil
}

// CorruptRead applies the post-download integrity stage: with
// CorruptReadProb it returns the FaultCorrupt reply, else nil.
func (c *CtxFlat) CorruptRead(format string, args ...any) error {
	if hit(c.pl.corrupt, c.pl.faultPlan().CorruptReadProb) {
		return storerr.Newf(FaultCorrupt.Code(), c.Op, format, args...)
	}
	return nil
}

// Sample draws a duration from dist on the pipeline's latency stream — for
// service-specific latencies (scan times, handshakes) that must not share a
// stream with fault draws.
func (c *CtxFlat) Sample(dist simrand.Dist) time.Duration {
	return simrand.Duration(dist, c.pl.latency)
}

// TimeoutHit draws the timeout-stage Bernoulli trial (the table service's
// ingest-overload model). On a hit the caller must sleep ServerTimeout on
// its actor and finish with TimeoutErrf.
func (c *CtxFlat) TimeoutHit(prob float64) bool {
	return hit(c.pl.timeout, prob)
}

// TimeoutErrf builds the timeout reply issued after the ServerTimeout burn.
func (c *CtxFlat) TimeoutErrf(format string, args ...any) error {
	return storerr.Newf(FaultTimeout.Code(), c.Op, format, args...)
}

// ServerTimeout returns the configured server-side deadline the caller
// must burn before delivering a timeout reply.
func (c *CtxFlat) ServerTimeout() time.Duration { return c.pl.cfg.ServerTimeout }

// UploadCost prices a size-byte client→service payload at the configured
// per-connection upload bandwidth.
func (c *CtxFlat) UploadCost(size int) time.Duration {
	return bwCost(size, c.pl.cfg.UploadBW)
}

// DownloadCost prices a size-byte service→client payload at the configured
// per-connection download bandwidth.
func (c *CtxFlat) DownloadCost(size int) time.Duration {
	return bwCost(size, c.pl.cfg.DownloadBW)
}

// Sleep arms then to run d from now on the request's actor — the latency
// stages the caller prices itself (payload download, timeout burn).
func (c *CtxFlat) Sleep(d time.Duration, then func()) { c.a.Sleep(d, then) }

// Now returns the request's current virtual time.
func (c *CtxFlat) Now() time.Duration { return c.a.Now() }

// Visit is the StationStage: one contended visit at st, with extra added to
// the sampled service time. then runs when the service time ends and must
// call EndVisit first.
func (c *CtxFlat) Visit(st *station.Station, extra time.Duration, then func()) {
	c.st = st
	c.a.Sleep(st.BeginVisit(extra), then)
}

// EndVisit completes the visit begun by Visit.
func (c *CtxFlat) EndVisit() {
	c.st.EndVisit()
	c.st = nil
}

// Transfer is the fabric TransferStage: a size-byte transfer across path
// under max-min fair sharing; then runs when the last byte arrives (at
// once for an empty payload).
func (c *CtxFlat) Transfer(size int64, then func(), path ...*netsim.Link) {
	c.pl.cfg.Net.TransferFlat(c.a, size, then, path...)
}

// Abort withdraws the request at its current stage: a station slot is
// given up without counting the op, and no hook sees the request. It runs
// in the unwind of an actor its owner cancels (sim.Actor.Cancel), as the
// queue service's ReqFlat.Abort does for ModisAzure's crashed workers.
func (c *CtxFlat) Abort() {
	if c.st != nil {
		c.st.AbortVisit()
	}
	c.st, c.a = nil, nil
}

// Finish delivers the completed request to the pipeline's hooks with err
// (nil on success) as its outcome. It must run exactly once per Begin,
// before the caller's own completion callback.
func (c *CtxFlat) Finish(err error) {
	now := c.a.Now()
	c.st, c.a = nil, nil
	for _, h := range c.pl.hs.hooks {
		h(Event{Service: c.pl.cfg.Service, Op: c.Op, Start: c.start, Latency: now - c.start, Err: err})
	}
}
