package simrand

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

const samples = 200000

func sampleMean(d Dist, r *RNG, n int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s += d.Sample(r)
	}
	return s / float64(n)
}

func TestForkDeterministic(t *testing.T) {
	a := New(1).Fork("blob")
	b := New(1).Fork("blob")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed,label) fork produced different streams")
		}
	}
}

func TestForkDecorrelated(t *testing.T) {
	a := New(1).Fork("blob")
	b := New(1).Fork("table")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct labels collided %d times in 1000 draws", same)
	}
}

func TestForkNDistinct(t *testing.T) {
	root := New(7)
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		v := root.ForkN("client", i).Uint64()
		if seen[v] {
			t.Fatalf("ForkN stream %d repeats an earlier first draw", i)
		}
		seen[v] = true
	}
}

func TestForkIndependentOfConsumptionOrder(t *testing.T) {
	// Drawing from the root stream must not perturb forked streams.
	r1 := New(3)
	f1 := r1.Fork("x")
	want := f1.Uint64()

	r2 := New(3)
	r2.Uint64() // extra consumption
	r2.Uint64()
	f2 := r2.Fork("x")
	if got := f2.Uint64(); got != want {
		t.Fatal("fork stream depends on root consumption")
	}
}

func TestConst(t *testing.T) {
	r := New(1)
	d := Const(4.2)
	if d.Sample(r) != 4.2 || d.Mean() != 4.2 {
		t.Fatal("Const broken")
	}
}

func TestUniformMoments(t *testing.T) {
	r := New(2)
	d := Uniform{Lo: 3, Hi: 9}
	m := sampleMean(d, r, samples)
	if math.Abs(m-6) > 0.02 {
		t.Fatalf("uniform mean = %.4f, want 6", m)
	}
	for i := 0; i < 1000; i++ {
		v := d.Sample(r)
		if v < 3 || v >= 9 {
			t.Fatalf("uniform sample %v outside [3,9)", v)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(3)
	d := Exponential{Rate: 0.25}
	m := sampleMean(d, r, samples)
	if math.Abs(m-4)/4 > 0.02 {
		t.Fatalf("exponential mean = %.4f, want 4", m)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(4)
	d := Normal{Mu: 10, Sigma: 2}
	var s, s2 float64
	for i := 0; i < samples; i++ {
		v := d.Sample(r)
		s += v
		s2 += v * v
	}
	mean := s / samples
	std := math.Sqrt(s2/samples - mean*mean)
	if math.Abs(mean-10) > 0.05 || math.Abs(std-2) > 0.05 {
		t.Fatalf("normal mean/std = %.3f/%.3f, want 10/2", mean, std)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	r := New(5)
	d := TruncNormal{Mu: 1, Sigma: 5, Lo: 0, Hi: 3}
	for i := 0; i < 10000; i++ {
		v := d.Sample(r)
		if v < 0 || v > 3 {
			t.Fatalf("truncated sample %v outside [0,3]", v)
		}
	}
}

func TestTruncNormalDegenerateClamps(t *testing.T) {
	r := New(6)
	// Range far from the mode: rejection gives up and clamps.
	d := TruncNormal{Mu: 0, Sigma: 0.001, Lo: 100, Hi: 200}
	if v := d.Sample(r); v != 100 {
		t.Fatalf("degenerate trunc normal = %v, want clamp at 100", v)
	}
}

func TestPosNormal(t *testing.T) {
	r := New(7)
	d := PosNormal(86, 27) // Table 1: worker-small create
	m := sampleMean(d, r, samples)
	if math.Abs(m-86) > 0.5 {
		t.Fatalf("PosNormal mean = %.2f, want ~86", m)
	}
	for i := 0; i < 10000; i++ {
		if d.Sample(r) < 0 {
			t.Fatal("PosNormal produced a negative duration")
		}
	}
}

func TestPosNormalMeanRecoversMean(t *testing.T) {
	r := New(21)
	cases := []struct{ mean, sigma float64 }{
		{6, 5},    // Table 1 delete: heavy truncation bias if naive
		{40, 30},  // Table 1 worker-small suspend
		{533, 36}, // negligible truncation
	}
	for _, c := range cases {
		d := PosNormalMean(c.mean, c.sigma)
		m := sampleMean(d, r, samples)
		if math.Abs(m-c.mean)/c.mean > 0.02 {
			t.Fatalf("PosNormalMean(%v,%v) sample mean = %.3f", c.mean, c.sigma, m)
		}
		for i := 0; i < 5000; i++ {
			if d.Sample(r) < 0 {
				t.Fatal("negative sample")
			}
		}
	}
	// Degenerate inputs fall back gracefully.
	if d := PosNormalMean(5, 0); d.Sample(r) < 0 {
		t.Fatal("zero-sigma fallback broken")
	}
}

func TestLogNormalMeanCV(t *testing.T) {
	r := New(8)
	d := LogNormalMeanCV(0.050, 0.3)
	m := sampleMean(d, r, samples)
	if math.Abs(m-0.050)/0.050 > 0.02 {
		t.Fatalf("lognormal mean = %.5f, want 0.050", m)
	}
	if math.Abs(d.Mean()-0.050) > 1e-9 {
		t.Fatalf("analytic mean = %v, want 0.050", d.Mean())
	}
}

func TestParetoTail(t *testing.T) {
	r := New(9)
	d := Pareto{Xm: 1, Alpha: 2}
	m := sampleMean(d, r, samples)
	if math.Abs(m-2) > 0.1 {
		t.Fatalf("pareto mean = %.3f, want 2", m)
	}
	for i := 0; i < 1000; i++ {
		if d.Sample(r) < 1 {
			t.Fatal("pareto sample below scale")
		}
	}
	if !math.IsInf(Pareto{Xm: 1, Alpha: 0.9}.Mean(), 1) {
		t.Fatal("pareto alpha<=1 mean should be +Inf")
	}
}

func TestBernoulli(t *testing.T) {
	r := New(10)
	d := Bernoulli{P: 0.026} // the paper's VM startup failure rate
	m := sampleMean(d, r, samples)
	if math.Abs(m-0.026) > 0.002 {
		t.Fatalf("bernoulli rate = %.4f, want 0.026", m)
	}
}

func TestMixtureWeights(t *testing.T) {
	r := New(11)
	m := NewMixture(
		Component{Weight: 0.5, Dist: Const(1)},
		Component{Weight: 0.35, Dist: Const(2)},
		Component{Weight: 0.15, Dist: Const(3)},
	)
	counts := map[float64]int{}
	n := 100000
	for i := 0; i < n; i++ {
		counts[m.Sample(r)]++
	}
	if math.Abs(float64(counts[1])/float64(n)-0.5) > 0.01 ||
		math.Abs(float64(counts[2])/float64(n)-0.35) > 0.01 ||
		math.Abs(float64(counts[3])/float64(n)-0.15) > 0.01 {
		t.Fatalf("mixture proportions off: %v", counts)
	}
	if math.Abs(m.Mean()-(0.5+0.7+0.45)) > 1e-9 {
		t.Fatalf("mixture mean = %v", m.Mean())
	}
}

func TestMixtureValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty", func() { NewMixture() })
	mustPanic("negative weight", func() {
		NewMixture(Component{Weight: -1, Dist: Const(0)})
	})
}

func TestEmpiricalQuantiles(t *testing.T) {
	r := New(12)
	// Fig. 4-like CDF: 50% at 1ms, 75% by 2ms, 100% by 10ms.
	d := NewEmpirical(
		CDFPoint{Value: 1, P: 0.50},
		CDFPoint{Value: 2, P: 0.75},
		CDFPoint{Value: 10, P: 1.00},
	)
	n := 200000
	le1, le2 := 0, 0
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		if v < 1 || v > 10 {
			t.Fatalf("sample %v outside [1,10]", v)
		}
		if v <= 1 {
			le1++
		}
		if v <= 2 {
			le2++
		}
	}
	if p := float64(le1) / float64(n); math.Abs(p-0.50) > 0.01 {
		t.Fatalf("P(≤1) = %.3f, want 0.50", p)
	}
	if p := float64(le2) / float64(n); math.Abs(p-0.75) > 0.01 {
		t.Fatalf("P(≤2) = %.3f, want 0.75", p)
	}
}

func TestEmpiricalValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty", func() { NewEmpirical() })
	mustPanic("non-increasing values", func() {
		NewEmpirical(CDFPoint{2, 0.5}, CDFPoint{1, 1})
	})
	mustPanic("non-increasing probs", func() {
		NewEmpirical(CDFPoint{1, 0.6}, CDFPoint{2, 0.5})
	})
	mustPanic("does not reach 1", func() {
		NewEmpirical(CDFPoint{1, 0.5}, CDFPoint{2, 0.9})
	})
}

func TestWeightedChoice(t *testing.T) {
	r := New(13)
	w := []float64{1, 3, 6}
	counts := make([]int, 3)
	n := 100000
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice(w)]++
	}
	for i, want := range []float64{0.1, 0.3, 0.6} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("choice %d freq = %.3f, want %.1f", i, got, want)
		}
	}
}

func TestScaledShifted(t *testing.T) {
	r := New(14)
	base := Uniform{Lo: 0, Hi: 2}
	s := Scaled{D: base, Factor: 3}
	sh := Shifted{D: base, Offset: 10}
	if math.Abs(s.Mean()-3) > 1e-9 || math.Abs(sh.Mean()-11) > 1e-9 {
		t.Fatal("analytic means of wrappers wrong")
	}
	if m := sampleMean(s, r, samples); math.Abs(m-3) > 0.02 {
		t.Fatalf("scaled mean = %.3f", m)
	}
	if m := sampleMean(sh, r, samples); math.Abs(m-11) > 0.02 {
		t.Fatalf("shifted mean = %.3f", m)
	}
}

func TestDurationClampsNegative(t *testing.T) {
	r := New(15)
	if d := Duration(Const(-5), r); d != 0 {
		t.Fatalf("negative duration not clamped: %v", d)
	}
	if d := Duration(Const(1.5), r); d.Seconds() != 1.5 {
		t.Fatalf("duration = %v, want 1.5s", d)
	}
}

// Property: empirical CDF samples always lie within [first, last] knot
// values, for arbitrary increasing knot sets.
func TestPropertyEmpiricalRange(t *testing.T) {
	f := func(seed uint64, rawVals [4]uint16) bool {
		vals := make([]float64, 0, 4)
		prev := -1.0
		for _, rv := range rawVals {
			v := float64(rv)
			if v <= prev {
				v = prev + 1
			}
			vals = append(vals, v)
			prev = v
		}
		d := NewEmpirical(
			CDFPoint{vals[0], 0.25},
			CDFPoint{vals[1], 0.5},
			CDFPoint{vals[2], 0.75},
			CDFPoint{vals[3], 1.0},
		)
		r := New(seed)
		for i := 0; i < 200; i++ {
			v := d.Sample(r)
			if v < vals[0] || v > vals[3] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Hit(p) frequency tracks p for arbitrary p in [0,1].
func TestPropertyHitRate(t *testing.T) {
	f := func(seed uint64, praw uint8) bool {
		p := float64(praw) / 255
		r := New(seed)
		hits := 0
		n := 20000
		for i := 0; i < n; i++ {
			if r.Hit(p) {
				hits++
			}
		}
		return math.Abs(float64(hits)/float64(n)-p) < 0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// A draw past the int64 nanosecond range used to wrap to a negative
// duration, which the kernel rejects as a negative sleep.
func TestDurationClampsLongDraws(t *testing.T) {
	r := New(1)
	const century = 100 * 365 * 24 * time.Hour
	for _, secs := range []float64{1e10, 1e300, math.Inf(1)} {
		got := Duration(Const(secs), r)
		if got < century {
			t.Fatalf("Duration(%g s) = %v, want a clamp past a century", secs, got)
		}
		if now := century; now+got < now {
			t.Fatalf("Duration(%g s) = %v overflows a century-old clock", secs, got)
		}
	}
	if got := Duration(Const(math.NaN()), r); got != 0 {
		t.Fatalf("Duration(NaN) = %v, want 0", got)
	}
	if got := Duration(Const(1.5), r); got != 1500*time.Millisecond {
		t.Fatalf("Duration(1.5 s) = %v, want 1.5s", got)
	}
}

// Duration must stay inlinable: inlined, a distribution literal its caller
// passes stays on the stack; called, it escapes, and every draw in the
// campaign and table-client loops allocates.
func TestDurationAllocatesNothing(t *testing.T) {
	r := New(1)
	rate := 2.0
	if n := testing.AllocsPerRun(100, func() {
		_ = Duration(Exponential{Rate: rate}, r)
	}); n != 0 {
		t.Fatalf("Duration allocates %v times per draw", n)
	}
}

// streams returns roots and forks whose draws the stream tests compare
// against the standard library.
func streams() []*RNG {
	out := []*RNG{New(0), New(1), New(42), New(424242)}
	for _, seed := range []uint64{1, 7} {
		root := New(seed)
		out = append(out, root.Fork("tablesvc"), root.Fork(""), root.ForkN("client", 0),
			root.ForkN("client", 199_999), root.ForkN("domain", 3), root.Fork("a").Fork("b"))
	}
	return out
}

// reference is the standard-library stream an RNG must reproduce.
func reference(r *RNG) *rand.Rand {
	return rand.New(rand.NewPCG(r.seed, splitmix64(r.seed)))
}

// TestStreamMatchesStdlib checks every RNG method draw for draw against
// rand.New(rand.NewPCG(seed, splitmix64(seed))): holding the generator by
// value must not move a single bit of any trace.
func TestStreamMatchesStdlib(t *testing.T) {
	const draws = 10_000
	sizes := []int{1, 2, 3, 5, 64, 100, 1000, 1 << 20, 1<<40 + 7, math.MaxInt64}
	for i, r := range streams() {
		ref := reference(r)
		for k := 0; k < draws; k++ {
			if a, b := r.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("stream %d: Uint64 draw %d = %d, want %d", i, k, a, b)
			}
			if a, b := r.Float64(), ref.Float64(); a != b {
				t.Fatalf("stream %d: Float64 draw %d = %v, want %v", i, k, a, b)
			}
			n := sizes[k%len(sizes)]
			if a, b := r.IntN(n), ref.IntN(n); a != b {
				t.Fatalf("stream %d: IntN(%d) draw %d = %d, want %d", i, n, k, a, b)
			}
			if a, b := r.ExpFloat64(), ref.ExpFloat64(); a != b {
				t.Fatalf("stream %d: ExpFloat64 draw %d = %v, want %v", i, k, a, b)
			}
			if a, b := r.NormFloat64(), ref.NormFloat64(); a != b {
				t.Fatalf("stream %d: NormFloat64 draw %d = %v, want %v", i, k, a, b)
			}
		}
		for k := 0; k < draws; k++ {
			n := k % 17
			if a, b := r.Perm(n), ref.Perm(n); !slices.Equal(a, b) {
				t.Fatalf("stream %d: Perm(%d) draw %d = %v, want %v", i, n, k, a, b)
			}
		}
	}
}

// TestCopyIsSnapshot pins the value semantics documented on RNG: a copy
// replays the original's remaining draws, and drawing from one leaves the
// other where it was.
func TestCopyIsSnapshot(t *testing.T) {
	r := New(5).Fork("copy")
	r.Uint64()
	c := *r
	want := make([]uint64, 8)
	for i := range want {
		want[i] = r.Uint64()
	}
	for i := range want {
		if got := c.Uint64(); got != want[i] {
			t.Fatalf("copy draw %d = %d, want the original's %d", i, got, want[i])
		}
	}
	// The copy's eight draws must not have advanced the original: its next
	// draw is the stream's tenth.
	ref := reference(r)
	for i := 0; i < 9; i++ {
		ref.Uint64()
	}
	if got, want := r.Uint64(), ref.Uint64(); got != want {
		t.Fatalf("original's tenth draw = %d, want %d", got, want)
	}
}

// Draws run on the inline generator and allocate nothing; a fork allocates
// the new stream and nothing else.
func TestDrawsAllocateNothing(t *testing.T) {
	r := New(1).Fork("allocs")
	var sink float64
	draws := map[string]func(){
		"Uint64":      func() { sink += float64(r.Uint64()) },
		"Float64":     func() { sink += r.Float64() },
		"IntN":        func() { sink += float64(r.IntN(1000)) },
		"ExpFloat64":  func() { sink += r.ExpFloat64() },
		"NormFloat64": func() { sink += r.NormFloat64() },
	}
	for name, draw := range draws {
		if n := testing.AllocsPerRun(1000, draw); n != 0 {
			t.Errorf("%s allocates %v times per draw", name, n)
		}
	}
	forks := map[string]func(){
		"Fork":  func() { _ = r.Fork("client") },
		"ForkN": func() { _ = r.ForkN("client", 12) },
	}
	for name, fork := range forks {
		if n := testing.AllocsPerRun(100, fork); n > 1 {
			t.Errorf("%s allocates %v objects, want at most 1", name, n)
		}
	}
	_ = sink
}
