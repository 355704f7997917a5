package metrics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	// population var is 4; unbiased sample var = 32/7.
	if math.Abs(s.Var()-32.0/7) > 1e-12 {
		t.Fatalf("var = %v, want %v", s.Var(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if math.Abs(s.Sum()-40) > 1e-9 {
		t.Fatalf("sum = %v", s.Sum())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.Std() != 0 {
		t.Fatal("empty summary stats not zero")
	}
}

func TestSummaryAddDuration(t *testing.T) {
	var s Summary
	s.AddDuration(1500 * time.Millisecond)
	if s.Mean() != 1.5 {
		t.Fatalf("mean = %v, want 1.5", s.Mean())
	}
}

func TestSummaryMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var all, a, b Summary
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 {
		t.Fatalf("merged mean = %v, want %v", a.Mean(), all.Mean())
	}
	if math.Abs(a.Var()-all.Var()) > 1e-9 {
		t.Fatalf("merged var = %v, want %v", a.Var(), all.Var())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatal("merged min/max wrong")
	}
}

func TestSummaryMergeEmptyCases(t *testing.T) {
	var a, b Summary
	a.Merge(&b) // both empty: no-op
	if a.N() != 0 {
		t.Fatal("merge of empties non-empty")
	}
	b.Add(3)
	a.Merge(&b)
	if a.N() != 1 || a.Mean() != 3 {
		t.Fatal("merge into empty failed")
	}
}

func TestSampleQuantiles(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.25, 25.75}, {0.99, 99.01},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("Q(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := s.Median(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("median = %v", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample(0)
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Mean()) || !math.IsNaN(s.FracLE(1)) {
		t.Fatal("empty sample should return NaN")
	}
}

func TestSampleFracLE(t *testing.T) {
	s := NewSample(0)
	for _, x := range []float64{1, 1, 2, 3, 10} {
		s.Add(x)
	}
	if got := s.FracLE(1); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("FracLE(1) = %v, want 0.4", got)
	}
	if got := s.FracLE(2.5); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("FracLE(2.5) = %v, want 0.6", got)
	}
	if got := s.FracLE(0); got != 0 {
		t.Fatalf("FracLE(0) = %v, want 0", got)
	}
	if got := s.FracLE(100); got != 1 {
		t.Fatalf("FracLE(100) = %v, want 1", got)
	}
}

func TestSampleCDF(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	cdf := s.CDF(10)
	if len(cdf) != 10 {
		t.Fatalf("CDF levels = %d", len(cdf))
	}
	if cdf[9].P != 1 || cdf[9].Value != 1000 {
		t.Fatalf("last CDF point = %+v", cdf[9])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Value < cdf[i-1].Value || cdf[i].P <= cdf[i-1].P {
			t.Fatal("CDF not monotone")
		}
	}
}

func TestSampleInterleavedAddQuery(t *testing.T) {
	s := NewSample(0)
	s.Add(5)
	_ = s.Median()
	s.Add(1) // must re-sort after a post-query Add
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("min after interleaved add = %v, want 1", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.999, 10, 42} {
		h.Add(x)
	}
	if h.N() != 8 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Under() != 1 || h.Over() != 2 {
		t.Fatalf("under/over = %d/%d, want 1/2", h.Under(), h.Over())
	}
	// bins: [0,2): {0,1.9}=2, [2,4): {2}=1, [4,6): {5}=1, [6,8): 0, [8,10): {9.999}=1
	want := []uint64{2, 1, 1, 0, 1}
	for i, w := range want {
		if h.Bin(i) != w {
			t.Fatalf("bin %d = %d, want %d", i, h.Bin(i), w)
		}
	}
	lo, hi := h.BinBounds(2)
	if lo != 4 || hi != 6 {
		t.Fatalf("bin 2 bounds = [%v,%v)", lo, hi)
	}
}

func TestHistogramCumulative(t *testing.T) {
	h := NewHistogram(0, 4, 4)
	for _, x := range []float64{0.5, 1.5, 1.6, 2.5} {
		h.Add(x)
	}
	c := h.Cumulative()
	want := []float64{0.25, 0.75, 1.0, 1.0}
	for i := range want {
		if math.Abs(c[i]-want[i]) > 1e-12 {
			t.Fatalf("cumulative = %v, want %v", c, want)
		}
	}
}

func TestHistogramValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad histogram did not panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	ts.Add(0, 1)
	ts.Add(time.Hour, 5)
	ts.Add(2*time.Hour, 3)
	if ts.Len() != 3 {
		t.Fatalf("len = %d", ts.Len())
	}
	if ts.Max() != 5 {
		t.Fatalf("max = %v", ts.Max())
	}
	if math.Abs(ts.Mean()-3) > 1e-12 {
		t.Fatalf("mean = %v", ts.Mean())
	}
}

func TestTimeSeriesOrdering(t *testing.T) {
	var ts TimeSeries
	ts.Add(time.Hour, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Add did not panic")
		}
	}()
	ts.Add(time.Minute, 2)
}

func TestCounterSet(t *testing.T) {
	c := NewCounterSet()
	c.Inc("Success", 10)
	c.Inc("Unknown failure", 3)
	c.Inc("Success", 5)
	if c.Get("Success") != 15 {
		t.Fatalf("Success = %d", c.Get("Success"))
	}
	if c.Get("absent") != 0 {
		t.Fatal("absent counter nonzero")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "Success" || names[1] != "Unknown failure" {
		t.Fatalf("names = %v (insertion order expected)", names)
	}
	if c.Total() != 18 {
		t.Fatalf("total = %d", c.Total())
	}
}

// TestCounterHandles: a handle resolves its counter once and stays valid
// while later names grow the set; Inc by handle and by name add up.
func TestCounterHandles(t *testing.T) {
	c := NewCounterSet()
	ok := c.Counter("Success")
	ok.Inc(2)
	for i := 0; i < 100; i++ {
		c.Inc(fmt.Sprintf("class-%d", i), 1)
	}
	ok.Inc(3)
	c.Inc("Success", 1)
	if got := c.Get("Success"); got != 6 {
		t.Fatalf("Success = %d, want 6", got)
	}
	if again := c.Counter("Success"); again != ok {
		t.Fatal("resolving a name twice gave two handles")
	}
	if c.Names()[0] != "Success" || c.Total() != 106 {
		t.Fatalf("names[0] = %q, total = %d", c.Names()[0], c.Total())
	}
	if a := testing.AllocsPerRun(100, func() { ok.Inc(1) }); a != 0 {
		t.Fatalf("Inc by handle allocates %v", a)
	}
}

// Property: Summary mean/var agree with direct computation.
func TestPropertySummaryMatchesDirect(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var s Summary
		var sum float64
		for _, r := range raw {
			s.Add(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, r := range raw {
			d := float64(r) - mean
			ss += d * d
		}
		wantVar := ss / float64(len(raw)-1)
		return math.Abs(s.Mean()-mean) < 1e-6 && math.Abs(s.Var()-wantVar) < 1e-4*(1+wantVar)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile is monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(raw []int16, qs [5]uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample(len(raw))
		for _, r := range raw {
			s.Add(float64(r))
		}
		sorted := append([]float64(nil), s.Values()...)
		sort.Float64s(sorted)
		qf := make([]float64, 0, 5)
		for _, q := range qs {
			qf = append(qf, float64(q)/255)
		}
		sort.Float64s(qf)
		prev := math.Inf(-1)
		for _, q := range qf {
			v := s.Quantile(q)
			if v < prev || v < sorted[0] || v > sorted[len(sorted)-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
