package stats

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); got != 5 {
		t.Fatalf("Mean = %g want 5", got)
	}
	if got := Variance(x); !approx(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %g want %g", got, 32.0/7.0)
	}
	if got := StdDev(x); !approx(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %g", got)
	}
}

func TestMinMax(t *testing.T) {
	x := []float64{3, -1, 4, 1, 5}
	if Min(x) != -1 || Max(x) != 5 {
		t.Fatalf("Min/Max = %g/%g", Min(x), Max(x))
	}
}

func TestEmptyPanics(t *testing.T) {
	funcs := map[string]func(){
		"mean":      func() { Mean(nil) },
		"min":       func() { Min(nil) },
		"max":       func() { Max(nil) },
		"quantile":  func() { Quantile(nil, 0.5) },
		"summarize": func() { Summarize(nil) },
		"variance1": func() { Variance([]float64{1}) },
		"rmse":      func() { RMSE(nil, nil) },
		"hist":      func() { Histogram(nil, 4) },
		"qrange":    func() { Quantile([]float64{1}, 1.5) },
	}
	for name, fn := range funcs {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestQuantileInterpolation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, c := range cases {
		if got := Quantile(x, c.q); !approx(got, c.want, 1e-12) {
			t.Fatalf("Quantile(%g) = %g want %g", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Fatalf("single-sample quantile = %g want 7", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	x := []float64{3, 1, 2}
	Quantile(x, 0.5)
	if x[0] != 3 || x[1] != 1 || x[2] != 2 {
		t.Fatalf("Quantile mutated input: %v", x)
	}
}

func TestMedianIQR(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if Median(x) != 3 {
		t.Fatalf("Median = %g", Median(x))
	}
	if got := Quantile(x, 0.75) - Quantile(x, 0.25); !approx(got, 2, 1e-12) {
		t.Fatalf("IQR = %g want 2", got)
	}
}

func TestRMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	act := []float64{1, 2, 3}
	if got := RMSE(pred, act); got != 0 {
		t.Fatalf("RMSE = %g want 0", got)
	}
	pred2 := []float64{2, 4}
	act2 := []float64{0, 0}
	want := math.Sqrt((4.0 + 16.0) / 2.0)
	if got := RMSE(pred2, act2); !approx(got, want, 1e-12) {
		t.Fatalf("RMSE = %g want %g", got, want)
	}
}

func TestWeightedRMSEReducesToRMSE(t *testing.T) {
	pred := []float64{1, 3, 5}
	act := []float64{0, 0, 0}
	w := []float64{1, 1, 1}
	if got, want := WeightedRMSE(pred, act, w), RMSE(pred, act); !approx(got, want, 1e-12) {
		t.Fatalf("WeightedRMSE = %g want %g", got, want)
	}
}

func TestWeightedRMSEPrioritizes(t *testing.T) {
	pred := []float64{10, 0}
	act := []float64{0, 0}
	// All the weight on the accurate sample drives the metric to zero.
	if got := WeightedRMSE(pred, act, []float64{0, 1}); got != 0 {
		t.Fatalf("WeightedRMSE = %g want 0", got)
	}
	if got := WeightedRMSE(pred, act, []float64{1, 0}); !approx(got, 10, 1e-12) {
		t.Fatalf("WeightedRMSE = %g want 10", got)
	}
}

func TestMAE(t *testing.T) {
	if got := MAE([]float64{1, -1}, []float64{0, 0}); got != 1 {
		t.Fatalf("MAE = %g want 1", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 8, 12.77, 32, 4})
	if s.N != 5 || s.Min != 4 || s.Max != 32 {
		t.Fatalf("Summary = %+v", s)
	}
	if s.Median != 8 {
		t.Fatalf("Median = %g want 8", s.Median)
	}
}

func TestHistogram(t *testing.T) {
	counts, edges := Histogram([]float64{0, 0.1, 0.5, 0.9, 1.0}, 2)
	if len(counts) != 2 || len(edges) != 3 {
		t.Fatalf("sizes %d,%d", len(counts), len(edges))
	}
	if counts[0] != 2 || counts[1] != 3 {
		t.Fatalf("counts = %v", counts)
	}
	// Constant input does not divide by zero.
	counts, _ = Histogram([]float64{5, 5, 5}, 3)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("constant histogram total = %d", total)
	}
}

func TestViolin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	v := Violin(x, 32)
	if len(v.Grid) != 32 || len(v.Density) != 32 {
		t.Fatalf("violin sizes %d,%d", len(v.Grid), len(v.Density))
	}
	// Density must be non-negative and peak near the center for a normal
	// sample.
	var peakIdx int
	for i, d := range v.Density {
		if d < 0 {
			t.Fatalf("negative density at %d", i)
		}
		if d > v.Density[peakIdx] {
			peakIdx = i
		}
	}
	peakX := v.Grid[peakIdx]
	if math.Abs(peakX) > 1 {
		t.Fatalf("KDE peak at %g, expected near 0", peakX)
	}
}

func TestViolinConstantSample(t *testing.T) {
	v := Violin([]float64{2, 2, 2}, 8)
	if v.Min != 2 || v.Max != 2 {
		t.Fatalf("violin summary %+v", v.Summary)
	}
	for _, d := range v.Density {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatal("non-finite density for constant sample")
		}
	}
}

func TestSampleDiscreteDeterministicEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Only index 2 has weight.
	for i := 0; i < 50; i++ {
		if got := SampleDiscrete(rng, []float64{0, 0, 1, 0}); got != 2 {
			t.Fatalf("SampleDiscrete = %d want 2", got)
		}
	}
}

func TestSampleDiscreteDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := []float64{1, 3}
	counts := [2]int{}
	n := 20000
	for i := 0; i < n; i++ {
		counts[SampleDiscrete(rng, w)]++
	}
	frac := float64(counts[1]) / float64(n)
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("index-1 fraction = %g want ~0.75", frac)
	}
}

func TestSampleDiscreteInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, w := range map[string][]float64{
		"zero":     {0, 0},
		"negative": {1, -1},
		"nan":      {math.NaN()},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			SampleDiscrete(rng, w)
		})
	}
}

func TestNormalize(t *testing.T) {
	w := []float64{1, 3}
	Normalize(w)
	if !approx(w[0], 0.25, 1e-12) || !approx(w[1], 0.75, 1e-12) {
		t.Fatalf("Normalize = %v", w)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := Shuffle(rng, 100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p[:10])
		}
		seen[v] = true
	}
}

func TestSplitSeedDecorrelated(t *testing.T) {
	a := SplitSeed(42, 0)
	b := SplitSeed(42, 1)
	c := SplitSeed(43, 0)
	if a == b || a == c || b == c {
		t.Fatalf("seeds collide: %d %d %d", a, b, c)
	}
	if a != SplitSeed(42, 0) {
		t.Fatal("SplitSeed not deterministic")
	}
}

func TestLinspace(t *testing.T) {
	v := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if !approx(v[i], want[i], 1e-12) {
			t.Fatalf("Linspace = %v", v)
		}
	}
}

// CumSum returns the cumulative sums of x.
func CumSum(x []float64) []float64 {
	out := make([]float64, len(x))
	var acc float64
	for i, v := range x {
		acc += v
		out[i] = acc
	}
	return out
}

func TestCumSum(t *testing.T) {
	v := CumSum([]float64{1, 2, 3})
	if v[0] != 1 || v[1] != 3 || v[2] != 6 {
		t.Fatalf("CumSum = %v", v)
	}
}

func TestAggregateBand(t *testing.T) {
	series := [][]float64{
		{1, 2, 3},
		{3, 4, 5},
		{2, 3, 4},
	}
	b := AggregateBand(series, 0.25, 0.75)
	if len(b.Mid) != 3 {
		t.Fatalf("band length %d", len(b.Mid))
	}
	if b.Mid[0] != 2 || b.Mid[2] != 4 {
		t.Fatalf("band mid = %v", b.Mid)
	}
}

func TestAggregateBandRightCensored(t *testing.T) {
	// Shorter series hold their final value — matches early-terminated
	// trajectories.
	series := [][]float64{
		{10},
		{0, 0, 0},
	}
	b := AggregateBand(series, 0, 1)
	if b.Hi[2] != 10 {
		t.Fatalf("censored extension Hi = %v", b.Hi)
	}
	if b.Lo[2] != 0 {
		t.Fatalf("censored extension Lo = %v", b.Lo)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.1 {
			qq := math.Min(q, 1)
			v := Quantile(x, qq)
			if v < prev-1e-12 || v < Min(x)-1e-12 || v > Max(x)+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize agrees with direct sort-based statistics.
func TestSummarizeConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		s := Summarize(x)
		sorted := append([]float64(nil), x...)
		sort.Float64s(sorted)
		return s.Min == sorted[0] && s.Max == sorted[n-1] &&
			approx(s.Median, Median(x), 1e-12) &&
			s.Q1 <= s.Median && s.Median <= s.Q3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: CumSum is monotone for non-negative inputs, and its last element
// equals the total.
func TestCumSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		x := make([]float64, n)
		var total float64
		for i := range x {
			x[i] = rng.Float64()
			total += x[i]
		}
		cs := CumSum(x)
		for i := 1; i < n; i++ {
			if cs[i] < cs[i-1] {
				return false
			}
		}
		return approx(cs[n-1], total, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if got := Pearson(x, []float64{2, 4, 6, 8}); !approx(got, 1, 1e-12) {
		t.Fatalf("perfect correlation = %g", got)
	}
	if got := Pearson(x, []float64{8, 6, 4, 2}); !approx(got, -1, 1e-12) {
		t.Fatalf("perfect anticorrelation = %g", got)
	}
	if got := Pearson(x, []float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("constant series correlation = %g", got)
	}
}

func TestPearsonPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"mismatch": func() { Pearson([]float64{1}, []float64{1, 2}) },
		"short":    func() { Pearson([]float64{1}, []float64{1}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any monotone transform gives rank correlation 1.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 8, 27, 64, 125}
	if got := Spearman(x, y); !approx(got, 1, 1e-12) {
		t.Fatalf("Spearman = %g want 1", got)
	}
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v want %v", r, want)
		}
	}
}

// Property: Spearman is invariant under strictly increasing transforms.
func TestSpearmanInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		a := Spearman(x, y)
		// exp is strictly increasing.
		ex := make([]float64, n)
		for i := range x {
			ex[i] = math.Exp(x[i])
		}
		b := Spearman(ex, y)
		return approx(a, b, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSeededRandMatchesFreshSource: a pooled generator re-seeded by
// SeededRand yields exactly rand.New(rand.NewSource(seed))'s stream, even
// when its last user left it mid-stream (Read keeps a partial word), from
// eight goroutines at once.
func TestSeededRandMatchesFreshSource(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 3)
			for i := 0; i < 200; i++ {
				seed := SplitSeed(int64(g), i)
				r, fresh := SeededRand(seed), rand.New(rand.NewSource(seed))
				for k := 0; k < 1+i%7; k++ {
					if a, b := r.NormFloat64(), fresh.NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
						t.Errorf("seed %d draw %d: %v, fresh source %v", seed, k, a, b)
						return
					}
				}
				if a, b := r.Int63(), fresh.Int63(); a != b {
					t.Errorf("seed %d: Int63 %d, fresh source %d", seed, a, b)
					return
				}
				r.Read(buf) // leave the generator mid-word for its next user
				PutRand(r)
			}
		}()
	}
	wg.Wait()
}
