// Package simrand provides deterministic, forkable random streams and the
// distribution family used to parameterise the simulated Azure platform.
//
// Every stochastic component takes an *RNG forked from a root seed with a
// stable label, so adding a new consumer never perturbs the draws seen by
// existing ones — experiments stay bit-for-bit reproducible as the code
// evolves.
package simrand

import (
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand/v2"
	"time"
)

// RNG is a deterministic random stream: a PCG generator held by value, so a
// draw reads state inline instead of following pointers to a rand.Rand and
// its source. The stream is bit-identical to
// rand.New(rand.NewPCG(seed, splitmix64(seed))).
//
// An RNG is a value: copying one copies the generator state, and the copy is
// an independent snapshot that replays the same draws as the original from
// that point on. Embed a fresh fork by value (c.rng = *root.ForkN(...)) to
// keep per-client streams inline; never copy a stream that is still being
// drawn from elsewhere unless a replay is what you want.
type RNG struct {
	pcg  rand.PCG
	seed uint64
}

// New returns a stream rooted at seed.
func New(seed uint64) *RNG {
	return &RNG{pcg: *rand.NewPCG(seed, splitmix64(seed)), seed: seed}
}

// Fork derives an independent stream identified by label. Forking the same
// (seed, label) pair always yields the same stream; distinct labels yield
// decorrelated streams.
func (r *RNG) Fork(label string) *RNG {
	return New(splitmix64(r.seed ^ labelHash(label)))
}

// ForkN derives an indexed independent stream, e.g. one per client.
func (r *RNG) ForkN(label string, n int) *RNG {
	return New(splitmix64(r.seed ^ labelHash(label) ^ (uint64(n)+1)*0x9e3779b97f4a7c15))
}

// labelHash is the 64-bit FNV-1a hash of a fork label.
func labelHash(label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return h.Sum64()
}

// Uint64 returns a pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 { return r.pcg.Uint64() }

// Float64 returns a pseudo-random number in [0, 1), drawn as rand.Rand does.
func (r *RNG) Float64() float64 {
	return float64(r.pcg.Uint64()<<11>>11) / (1 << 53)
}

// IntN returns a pseudo-random number in [0, n); it panics if n <= 0. It is
// rand.Rand's unbiased multiply-and-reject reduction, draw for draw.
func (r *RNG) IntN(n int) int {
	if n <= 0 {
		panic("invalid argument to IntN")
	}
	u := uint64(n)
	if u&(u-1) == 0 {
		return int(r.pcg.Uint64() & (u - 1))
	}
	hi, lo := bits.Mul64(r.pcg.Uint64(), u)
	if lo < u {
		thresh := -u % u
		for lo < thresh {
			hi, lo = bits.Mul64(r.pcg.Uint64(), u)
		}
	}
	return int(hi)
}

// The remaining draws keep the standard library's code (the ziggurat tables
// of ExpFloat64 and NormFloat64, Perm's shuffle) by wrapping the inline
// generator in a rand.Rand that lives on the caller's stack.

// ExpFloat64 returns an exponentially distributed number with rate 1.
func (r *RNG) ExpFloat64() float64 { return rand.New(&r.pcg).ExpFloat64() }

// NormFloat64 returns a standard normally distributed number.
func (r *RNG) NormFloat64() float64 { return rand.New(&r.pcg).NormFloat64() }

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return rand.New(&r.pcg).Perm(n) }

// splitmix64 is the finalizer of the SplitMix64 generator, used to decorrelate
// derived seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Dist is a real-valued random distribution.
type Dist interface {
	// Sample draws one value using the given stream.
	Sample(r *RNG) float64
	// Mean returns the distribution's analytic mean (used for calibration
	// checks and for the 4x-timeout heuristics that need expected values).
	Mean() float64
}

// MaxDuration bounds every Duration draw: about 146 years, far past any
// simulated horizon, and small enough that a virtual clock below it plus a
// draw can never overflow time.Duration.
const MaxDuration = time.Duration(1 << 62)

// Duration samples d (interpreted in seconds) and converts to time.Duration,
// clamping to [0, MaxDuration] (up to a microsecond of rounding at the top).
// Without the upper clamp a heavy-tailed or very-long-mean draw past about
// 292 years would wrap to a negative duration. Duration is kept small
// enough to inline, which keeps its callers' distributions off the heap.
func Duration(d Dist, r *RNG) time.Duration {
	s := min(d.Sample(r), float64(MaxDuration)/float64(time.Second))
	if !(s > 0) {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}

// Const is the degenerate distribution: always Value.
type Const float64

func (c Const) Sample(*RNG) float64 { return float64(c) }
func (c Const) Mean() float64       { return float64(c) }

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }
func (u Uniform) Mean() float64         { return (u.Lo + u.Hi) / 2 }

// Exponential has the given Rate (λ); mean 1/λ.
type Exponential struct {
	Rate float64
}

func (e Exponential) Sample(r *RNG) float64 { return r.ExpFloat64() / e.Rate }
func (e Exponential) Mean() float64         { return 1 / e.Rate }

// Normal is the Gaussian distribution. Samples are unbounded; see
// TruncNormal for the clipped variant used for physical durations.
type Normal struct {
	Mu, Sigma float64
}

func (n Normal) Sample(r *RNG) float64 { return n.Mu + n.Sigma*r.NormFloat64() }
func (n Normal) Mean() float64         { return n.Mu }

// TruncNormal is a Gaussian resampled into [Lo, Hi]. It models measured
// duration statistics (Table 1 of the paper reports AVG and STD; durations
// cannot be negative). Resampling keeps the shape near the mode; after 100
// rejected draws the sample clamps, so a misconfigured range cannot hang.
type TruncNormal struct {
	Mu, Sigma float64
	Lo, Hi    float64
}

func (t TruncNormal) Sample(r *RNG) float64 {
	for i := 0; i < 100; i++ {
		v := t.Mu + t.Sigma*r.NormFloat64()
		if v >= t.Lo && v <= t.Hi {
			return v
		}
	}
	return math.Min(math.Max(t.Mu, t.Lo), t.Hi)
}

// Mean returns the untruncated mean; with Lo/Hi a few sigma out (as used
// throughout) the truncation bias is negligible.
func (t TruncNormal) Mean() float64 { return t.Mu }

// PosNormal returns a TruncNormal clipped at zero below and +6σ above — the
// standard shape for "AVG/STD of a measured duration".
func PosNormal(mu, sigma float64) TruncNormal {
	return TruncNormal{Mu: mu, Sigma: sigma, Lo: 0, Hi: mu + 6*sigma}
}

// PosNormalMean returns a zero-truncated normal whose *truncated* mean
// equals mean: when sigma is large relative to mean, naive truncation at
// zero inflates the sample mean (a Normal(6, 5) clipped at 0 averages ~7.1);
// this solves for the underlying location so published AVG/STD pairs like
// Table 1's "delete: 6 ± 5 s" are recovered exactly.
func PosNormalMean(mean, sigma float64) TruncNormal {
	if sigma <= 0 || mean <= 0 {
		return PosNormal(mean, sigma)
	}
	// Truncated-at-zero mean: m(mu) = mu + sigma·λ(−mu/sigma), with
	// λ(a) = φ(a)/(1−Φ(a)) the inverse Mills ratio. m is increasing in mu;
	// bisect for m(mu) = mean.
	m := func(mu float64) float64 {
		a := -mu / sigma
		phi := math.Exp(-a*a/2) / math.Sqrt(2*math.Pi)
		tail := 0.5 * math.Erfc(a/math.Sqrt2) // 1 − Φ(a)
		if tail < 1e-300 {
			return mu
		}
		return mu + sigma*phi/tail
	}
	lo, hi := mean-6*sigma, mean
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if m(mid) < mean {
			lo = mid
		} else {
			hi = mid
		}
	}
	mu := (lo + hi) / 2
	return TruncNormal{Mu: mu, Sigma: sigma, Lo: 0, Hi: mean + 6*sigma}
}

// LogNormal is parameterised by the mean and sigma of the underlying normal.
type LogNormal struct {
	Mu, Sigma float64
}

func (l LogNormal) Sample(r *RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// LogNormalMeanCV builds a LogNormal from its arithmetic mean and
// coefficient of variation — the natural way to express "latency with X%
// jitter".
func LogNormalMeanCV(mean, cv float64) LogNormal {
	s2 := math.Log(1 + cv*cv)
	return LogNormal{Mu: math.Log(mean) - s2/2, Sigma: math.Sqrt(s2)}
}

// Pareto is the heavy-tailed distribution with scale Xm and shape Alpha.
type Pareto struct {
	Xm, Alpha float64
}

func (p Pareto) Sample(r *RNG) float64 {
	return p.Xm / math.Pow(1-r.Float64(), 1/p.Alpha)
}

func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Bernoulli returns 1 with probability P, else 0.
type Bernoulli struct {
	P float64
}

func (b Bernoulli) Sample(r *RNG) float64 {
	if r.Float64() < b.P {
		return 1
	}
	return 0
}
func (b Bernoulli) Mean() float64 { return b.P }

// Hit draws a Bernoulli trial directly as a bool.
func (r *RNG) Hit(p float64) bool { return r.Float64() < p }

// Component is one branch of a Mixture.
type Component struct {
	Weight float64
	Dist   Dist
}

// Mixture draws from one of its components with probability proportional to
// its weight. It models multi-modal measurements such as the paper's Fig. 5
// TCP bandwidth (well-placed VM pairs vs congested ones).
type Mixture struct {
	Components []Component
	total      float64
}

// NewMixture validates and returns a mixture.
func NewMixture(components ...Component) *Mixture {
	m := &Mixture{Components: components}
	for _, c := range components {
		if c.Weight < 0 {
			panic("simrand: negative mixture weight")
		}
		m.total += c.Weight
	}
	if m.total == 0 {
		panic("simrand: empty mixture")
	}
	return m
}

func (m *Mixture) Sample(r *RNG) float64 {
	u := r.Float64() * m.total
	for _, c := range m.Components {
		if u < c.Weight {
			return c.Dist.Sample(r)
		}
		u -= c.Weight
	}
	return m.Components[len(m.Components)-1].Dist.Sample(r)
}

func (m *Mixture) Mean() float64 {
	var s float64
	for _, c := range m.Components {
		s += c.Weight / m.total * c.Dist.Mean()
	}
	return s
}

// CDFPoint is one knot of an empirical CDF.
type CDFPoint struct {
	Value float64 // sample value
	P     float64 // cumulative probability at Value, in (0, 1]
}

// Empirical samples by inverse transform over a piecewise-linear CDF. It is
// the workhorse for "reproduce this published histogram" distributions
// (Figs. 4 and 5).
type Empirical struct {
	points []CDFPoint
}

// NewEmpirical builds an empirical distribution from CDF knots, which must
// be strictly increasing in both value and probability, ending at P = 1.
func NewEmpirical(points ...CDFPoint) *Empirical {
	if len(points) == 0 {
		panic("simrand: empty empirical CDF")
	}
	for i := 1; i < len(points); i++ {
		if points[i].Value <= points[i-1].Value || points[i].P <= points[i-1].P {
			panic("simrand: empirical CDF knots must be strictly increasing")
		}
	}
	last := points[len(points)-1]
	if last.P < 0.999999 || last.P > 1.000001 {
		panic("simrand: empirical CDF must end at P=1")
	}
	return &Empirical{points: points}
}

func (e *Empirical) Sample(r *RNG) float64 {
	u := r.Float64()
	prevV, prevP := e.points[0].Value, 0.0
	// Below the first knot, interpolate from (Value[0], 0) treating the
	// first knot as the end of the first segment.
	if len(e.points) > 1 {
		prevV = e.points[0].Value
		prevP = e.points[0].P
		if u <= prevP {
			return prevV
		}
	}
	for _, pt := range e.points[1:] {
		if u <= pt.P {
			frac := (u - prevP) / (pt.P - prevP)
			return prevV + frac*(pt.Value-prevV)
		}
		prevV, prevP = pt.Value, pt.P
	}
	return e.points[len(e.points)-1].Value
}

func (e *Empirical) Mean() float64 {
	// Mean of the piecewise-linear CDF: mass at the first knot plus trapezoid
	// midpoints for each segment.
	m := e.points[0].Value * e.points[0].P
	prev := e.points[0]
	for _, pt := range e.points[1:] {
		m += (pt.P - prev.P) * (prev.Value + pt.Value) / 2
		prev = pt
	}
	return m
}

// WeightedChoice picks index i with probability weights[i]/sum(weights).
func (r *RNG) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	u := r.Float64() * total
	for i, w := range weights {
		if u < w {
			return i
		}
		u -= w
	}
	return len(weights) - 1
}

// Scaled wraps a distribution multiplied by a constant factor.
type Scaled struct {
	D      Dist
	Factor float64
}

func (s Scaled) Sample(r *RNG) float64 { return s.D.Sample(r) * s.Factor }
func (s Scaled) Mean() float64         { return s.D.Mean() * s.Factor }

// Shifted wraps a distribution plus a constant offset.
type Shifted struct {
	D      Dist
	Offset float64
}

func (s Shifted) Sample(r *RNG) float64 { return s.D.Sample(r) + s.Offset }
func (s Shifted) Mean() float64         { return s.D.Mean() + s.Offset }
