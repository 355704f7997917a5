// Package station models a storage-service operation point whose per-op
// latency grows with client concurrency:
//
//	s(n) = s0 · (1 + (n/n0)^γ) · jitter
//
// Closed-loop clients (one outstanding request each, as in all the paper's
// storage experiments) then see aggregate throughput n/s(n), which for γ = 2
// peaks exactly at n = n0 and declines beyond it — the single-peak shape the
// paper measured for table Update (peak at 8 clients), table Delete (peak at
// 128) and queue Add/Receive (peak at 64). For γ < 1 or n0 beyond the tested
// range the aggregate keeps growing while per-client rates decay gently
// (table Insert/Query, queue Peek).
package station

import (
	"math"
	"time"

	"azureobs/internal/simrand"
)

// Config parameterises one operation's contention model.
type Config struct {
	// S0 is the uncontended service time.
	S0 time.Duration
	// N0 is the contention knee: with Gamma=2, aggregate throughput peaks
	// at N0 concurrent clients.
	N0 float64
	// Gamma is the contention exponent.
	Gamma float64
	// CV is the lognormal jitter coefficient of variation (0 = none).
	CV float64
}

// Station is a shared operation point. Concurrency n in the latency law is
// the number of in-flight visits: closed-loop clients (no think time) are
// inside a visit essentially always, so the in-flight count equals the
// offered concurrency without explicit registration. Attach/Detach allow
// pinning additional standing load (e.g. background pollers between polls).
type Station struct {
	cfg      Config
	rng      *simrand.RNG
	attached int
	ops      uint64

	// The jitter is simrand.LogNormalMeanCV(mean latency, CV), computed in
	// parts: s2 = Log(1+CV²) and sigma = √s2 are constants of the station,
	// and mu, the log-mean at concurrency muN, is recomputed only when the
	// concurrency differs from the last draw's. The arithmetic is
	// LogNormalMeanCV's, so every draw is bit-identical to it.
	s2, sigma float64
	muN       int
	mu        float64
}

// New builds a station.
func New(cfg Config, rng *simrand.RNG) *Station {
	if cfg.S0 <= 0 || cfg.N0 <= 0 || cfg.Gamma < 0 {
		panic("station: bad config")
	}
	s2 := math.Log(1 + cfg.CV*cfg.CV)
	return &Station{cfg: cfg, rng: rng, s2: s2, sigma: math.Sqrt(s2), muN: -1}
}

// Attach registers one more concurrent client.
func (st *Station) Attach() { st.attached++ }

// Detach unregisters a client.
func (st *Station) Detach() {
	if st.attached == 0 {
		panic("station: detach without attach")
	}
	st.attached--
}

// Attached returns the current client count.
func (st *Station) Attached() int { return st.attached }

// Ops returns the number of operations served.
func (st *Station) Ops() uint64 { return st.ops }

// MeanLatency returns the expected service time at concurrency n.
func (st *Station) MeanLatency(n int) time.Duration {
	if n < 1 {
		n = 1
	}
	f := 1 + math.Pow(float64(n)/st.cfg.N0, st.cfg.Gamma)
	return time.Duration(float64(st.cfg.S0) * f)
}

// SampleLatency draws one service time at the current concurrency.
func (st *Station) SampleLatency() time.Duration {
	if st.cfg.CV <= 0 {
		return time.Duration(st.MeanLatency(st.attached).Seconds() * float64(time.Second))
	}
	if st.attached != st.muN {
		st.muN = st.attached
		st.mu = math.Log(st.MeanLatency(st.attached).Seconds()) - st.s2/2
	}
	return simrand.Duration(simrand.LogNormal{Mu: st.mu, Sigma: st.sigma}, st.rng)
}

// BeginVisit starts one operation: the caller must sleep the returned
// service latency (extra included: payload transfer, replication sync) on
// its actor, then call EndVisit. The latency is drawn with the visit
// already counted in the concurrency, so n in the latency law includes the
// visitor itself.
func (st *Station) BeginVisit(extra time.Duration) time.Duration {
	st.attached++
	return st.SampleLatency() + extra
}

// AbortVisit withdraws a visit begun with BeginVisit without serving it —
// the path of a visitor whose actor is cancelled: the client detaches and
// the op does not count.
func (st *Station) AbortVisit() {
	if st.attached == 0 {
		panic("station: AbortVisit without BeginVisit")
	}
	st.attached--
}

// EndVisit completes a visit begun with BeginVisit.
func (st *Station) EndVisit() {
	if st.attached == 0 {
		panic("station: EndVisit without BeginVisit")
	}
	st.attached--
	st.ops++
}
