// Package metrics collects and summarises measurements produced by the
// simulated experiments: streaming moments, exact quantiles, histograms,
// CDFs and time series — the statistical toolkit behind every table and
// figure the benchmark harness regenerates.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary accumulates streaming count/mean/variance/min/max using Welford's
// algorithm. The zero value is ready to use.
type Summary struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddDuration records a duration in seconds.
func (s *Summary) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the observation count.
func (s *Summary) N() uint64 { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 for n < 2). Cancellation in
// Welford updates or Merge can leave m2 a tiny negative number; that would
// surface as a NaN standard deviation, so it clamps to 0.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	v := s.m2 / float64(s.n-1)
	if v < 0 {
		return 0
	}
	return v
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 {
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 {
	return s.max
}

// Sum returns n × mean.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// Merge folds other into s, as if every observation of other had been Added.
func (s *Summary) Merge(other *Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	delta := other.mean - s.mean
	tot := n1 + n2
	s.m2 += other.m2 + delta*delta*n1*n2/tot
	s.mean += delta * n2 / tot
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
}

func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g", s.n, s.Mean(), s.Std(), s.min, s.max)
}

// neumaierAdd folds x into a compensated running sum (Neumaier's variant of
// Kahan summation: unlike plain Kahan it stays exact when the new term is
// larger than the running sum). The true total is sum + comp.
//
// Million-client cells push counts where naive accumulation loses real
// precision: summing 1e6 latencies spanning six orders of magnitude drifts
// the mean by measurable ulps, and pathological orders ([1e16, 1, -1e16])
// lose the small term entirely.
func neumaierAdd(sum, comp, x float64) (float64, float64) {
	t := sum + x
	if math.Abs(sum) >= math.Abs(x) {
		comp += (sum - t) + x
	} else {
		comp += (x - t) + sum
	}
	return t, comp
}

// compensatedSum returns the Neumaier-compensated total of xs.
func compensatedSum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		sum, comp = neumaierAdd(sum, comp, x)
	}
	return sum + comp
}

// Sample stores every observation for exact quantiles and CDF export. For
// the scales in this repository (≤ a few million points) exact storage is
// cheaper than the error analysis a sketch would demand.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns an empty sample with the given capacity hint.
func NewSample(capacity int) *Sample {
	return &Sample{xs: make([]float64, 0, capacity)}
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddDuration records a duration in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns the observations in sorted order. The returned slice is
// owned by the Sample; callers must not modify it.
func (s *Sample) Values() []float64 {
	s.sort()
	return s.xs
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between order statistics. Empty samples return NaN.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		s.sort()
		return s.xs[0]
	}
	if q >= 1 {
		s.sort()
		return s.xs[len(s.xs)-1]
	}
	s.sort()
	pos := q * float64(len(s.xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[lo]
	}
	return s.xs[lo] + frac*(s.xs[lo+1]-s.xs[lo])
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the sample mean, accumulated with compensated summation.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	return compensatedSum(s.xs) / float64(len(s.xs))
}

// FracLE returns the fraction of observations ≤ x.
func (s *Sample) FracLE(x float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	i := sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(s.xs))
}

// CDF returns (value, cumulative probability) pairs at the given number of
// evenly spaced probability levels, suitable for plotting the paper's
// cumulative histograms.
func (s *Sample) CDF(levels int) []CDFPoint {
	pts := make([]CDFPoint, 0, levels)
	for i := 1; i <= levels; i++ {
		p := float64(i) / float64(levels)
		pts = append(pts, CDFPoint{Value: s.Quantile(p), P: p})
	}
	return pts
}

// CDFPoint is one point of an exported CDF.
type CDFPoint struct {
	Value float64
	P     float64
}

// Histogram counts observations into fixed-width bins over [Lo, Hi); values
// outside the range land in under/overflow counters.
type Histogram struct {
	Lo, Hi float64
	bins   []uint64
	under  uint64
	over   uint64
	n      uint64
	sum    float64
	comp   float64 // Neumaier compensation for sum
}

// NewHistogram creates a histogram with the given bin count over [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if hi <= lo || bins <= 0 {
		panic(fmt.Sprintf("metrics: bad histogram range [%v,%v) bins=%d", lo, hi, bins))
	}
	return &Histogram{Lo: lo, Hi: hi, bins: make([]uint64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.n++
	h.sum, h.comp = neumaierAdd(h.sum, h.comp, x)
	switch {
	case x < h.Lo:
		h.under++
	case x >= h.Hi:
		h.over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.bins)))
		if i == len(h.bins) { // guard FP edge
			i--
		}
		h.bins[i]++
	}
}

// N returns the total observation count.
func (h *Histogram) N() uint64 { return h.n }

// Mean returns the mean of all observations (including out-of-range ones).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return (h.sum + h.comp) / float64(h.n)
}

// Bin returns the count in bin i.
func (h *Histogram) Bin(i int) uint64 { return h.bins[i] }

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.bins) }

// BinBounds returns the [lo, hi) bounds of bin i.
func (h *Histogram) BinBounds(i int) (float64, float64) {
	w := (h.Hi - h.Lo) / float64(len(h.bins))
	return h.Lo + float64(i)*w, h.Lo + float64(i+1)*w
}

// Under and Over return the out-of-range counters.
func (h *Histogram) Under() uint64 { return h.under }

// Over returns the count of observations ≥ Hi.
func (h *Histogram) Over() uint64 { return h.over }

// Cumulative returns, for each bin upper edge, the fraction of in-range-or-
// under observations at or below it.
func (h *Histogram) Cumulative() []float64 {
	out := make([]float64, len(h.bins))
	var run uint64 = h.under
	for i, c := range h.bins {
		run += c
		out[i] = float64(run) / float64(h.n)
	}
	return out
}

// TimeSeries records (time, value) points, e.g. the daily timeout
// percentage of Fig. 7.
type TimeSeries struct {
	Times  []time.Duration
	Values []float64
}

// Add appends a point; times must be nondecreasing.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	if n := len(ts.Times); n > 0 && t < ts.Times[n-1] {
		panic("metrics: time series times must be nondecreasing")
	}
	ts.Times = append(ts.Times, t)
	ts.Values = append(ts.Values, v)
}

// Len returns the number of points.
func (ts *TimeSeries) Len() int { return len(ts.Times) }

// Max returns the maximum value (NaN when empty).
func (ts *TimeSeries) Max() float64 {
	if len(ts.Values) == 0 {
		return math.NaN()
	}
	m := ts.Values[0]
	for _, v := range ts.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the mean value (NaN when empty), accumulated with
// compensated summation.
func (ts *TimeSeries) Mean() float64 {
	if len(ts.Values) == 0 {
		return math.NaN()
	}
	return compensatedSum(ts.Values) / float64(len(ts.Values))
}

// CounterSet is a named tally, used for the ModisAzure failure taxonomy
// (Table 2). Iteration order is insertion order, so reports are stable.
type CounterSet struct {
	counters []namedCount // in insertion order
	index    map[string]int
}

type namedCount struct {
	name string
	n    uint64
}

// NewCounterSet returns an empty counter set.
func NewCounterSet() *CounterSet {
	return &CounterSet{index: make(map[string]int)}
}

// Counter is a handle to one counter of a set. Resolve it once with
// CounterSet.Counter and Inc through it on hot paths: it skips the name
// lookup. A handle stays valid as the set grows.
type Counter struct {
	set *CounterSet
	i   int
}

// Counter returns the handle of the named counter, creating it (at zero)
// if needed.
func (c *CounterSet) Counter(name string) Counter {
	i, ok := c.index[name]
	if !ok {
		i = len(c.counters)
		c.counters = append(c.counters, namedCount{name: name})
		c.index[name] = i
	}
	return Counter{set: c, i: i}
}

// Inc adds delta to the counter.
func (h Counter) Inc(delta uint64) { h.set.counters[h.i].n += delta }

// Inc adds delta to the named counter, creating it if needed.
func (c *CounterSet) Inc(name string, delta uint64) { c.Counter(name).Inc(delta) }

// Get returns the named counter (0 if absent).
func (c *CounterSet) Get(name string) uint64 {
	if i, ok := c.index[name]; ok {
		return c.counters[i].n
	}
	return 0
}

// Names returns counter names in insertion order.
func (c *CounterSet) Names() []string {
	names := make([]string, len(c.counters))
	for i, e := range c.counters {
		names[i] = e.name
	}
	return names
}

// Total returns the sum of all counters.
func (c *CounterSet) Total() uint64 {
	var t uint64
	for _, e := range c.counters {
		t += e.n
	}
	return t
}
