// Package stats provides the descriptive statistics, sampling utilities, and
// aggregation helpers used by the active-learning evaluation: quantiles,
// moments, histograms, violin-style distribution summaries, discrete
// probability sampling, and deterministic RNG stream splitting.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Mean returns the arithmetic mean of x. It panics on an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		panic("stats: Mean of empty slice")
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the unbiased sample variance of x (n-1 denominator).
// It panics when len(x) < 2.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		panic("stats: Variance needs at least two samples")
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x)-1)
}

// StdDev returns the sample standard deviation of x.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Min returns the smallest element of x. It panics on an empty slice.
func Min(x []float64) float64 {
	if len(x) == 0 {
		panic("stats: Min of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest element of x. It panics on an empty slice.
func Max(x []float64) float64 {
	if len(x) == 0 {
		panic("stats: Max of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Quantile returns the q-th quantile of x for q in [0,1], using linear
// interpolation between order statistics (the same convention as numpy's
// default). It panics on an empty slice or q outside [0,1].
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %g outside [0,1]", q))
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5 quantile of x.
func Median(x []float64) float64 { return Quantile(x, 0.5) }

// RMSE returns the root-mean-square error between predictions and targets.
// It panics when lengths differ or are zero.
func RMSE(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic("stats: RMSE length mismatch")
	}
	if len(pred) == 0 {
		panic("stats: RMSE of empty slices")
	}
	var s float64
	for i := range pred {
		d := pred[i] - actual[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// WeightedRMSE returns sqrt(Σ wᵢ eᵢ² / Σ wᵢ) for e = pred-actual, the
// non-uniform error metric discussed in the paper (§V-D, eq. 12): larger
// weights prioritize accuracy for the corresponding samples.
func WeightedRMSE(pred, actual, w []float64) float64 {
	if len(pred) != len(actual) || len(pred) != len(w) {
		panic("stats: WeightedRMSE length mismatch")
	}
	if len(pred) == 0 {
		panic("stats: WeightedRMSE of empty slices")
	}
	var num, den float64
	for i := range pred {
		d := pred[i] - actual[i]
		num += w[i] * d * d
		den += w[i]
	}
	if den <= 0 {
		panic("stats: WeightedRMSE with non-positive total weight")
	}
	return math.Sqrt(num / den)
}

// MAE returns the mean absolute error between predictions and targets.
func MAE(pred, actual []float64) float64 {
	if len(pred) != len(actual) || len(pred) == 0 {
		panic("stats: MAE length mismatch or empty")
	}
	var s float64
	for i := range pred {
		s += math.Abs(pred[i] - actual[i])
	}
	return s / float64(len(pred))
}

// Summary holds the five-number summary plus mean for a sample, matching the
// columns the paper reports in Table I.
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Mean   float64
	Q3     float64
	Max    float64
}

// Summarize computes a Summary of x. It panics on an empty slice.
func Summarize(x []float64) Summary {
	if len(x) == 0 {
		panic("stats: Summarize of empty slice")
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return Summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Mean:   Mean(s),
		Q3:     quantileSorted(s, 0.75),
		Max:    s[len(s)-1],
	}
}

// Histogram bins x into nbins equal-width bins over [min,max] and returns
// the bin counts together with the bin edges (nbins+1 values). Values equal
// to max land in the last bin.
func Histogram(x []float64, nbins int) (counts []int, edges []float64) {
	if nbins <= 0 {
		panic("stats: Histogram needs nbins > 0")
	}
	if len(x) == 0 {
		panic("stats: Histogram of empty slice")
	}
	lo, hi := Min(x), Max(x)
	if lo == hi {
		hi = lo + 1
	}
	counts = make([]int, nbins)
	edges = make([]float64, nbins+1)
	w := (hi - lo) / float64(nbins)
	for i := range edges {
		edges[i] = lo + float64(i)*w
	}
	for _, v := range x {
		b := int((v - lo) / w)
		if b >= nbins {
			b = nbins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return counts, edges
}

// ViolinSummary describes a sample's distribution the way the paper's
// violin plots do (Fig 2): median, interquartile range, extremes, and a
// smoothed density profile suitable for rendering the violin outline.
type ViolinSummary struct {
	Summary
	// Density holds the kernel density estimate evaluated at Grid points
	// spanning [Min, Max]; the widths of the violin at each height.
	Grid    []float64
	Density []float64
}

// Violin computes a ViolinSummary with a Gaussian KDE evaluated at npoints
// grid points. Bandwidth follows Scott's rule; a floor avoids zero bandwidth
// for constant samples.
func Violin(x []float64, npoints int) ViolinSummary {
	if npoints < 2 {
		panic("stats: Violin needs npoints >= 2")
	}
	sum := Summarize(x)
	grid := make([]float64, npoints)
	dens := make([]float64, npoints)
	span := sum.Max - sum.Min
	if span == 0 {
		span = 1
	}
	var sd float64
	if len(x) >= 2 {
		sd = StdDev(x)
	}
	bw := sd * math.Pow(float64(len(x)), -0.2)
	if bw <= 0 {
		bw = span / 10
	}
	for i := range grid {
		grid[i] = sum.Min + span*float64(i)/float64(npoints-1)
		var d float64
		for _, v := range x {
			z := (grid[i] - v) / bw
			d += math.Exp(-0.5 * z * z)
		}
		dens[i] = d / (float64(len(x)) * bw * math.Sqrt(2*math.Pi))
	}
	return ViolinSummary{Summary: sum, Grid: grid, Density: dens}
}

// SampleDiscrete draws an index from the (unnormalized, non-negative) weight
// vector w using rng. It panics when all weights are zero or any is
// negative/non-finite.
func SampleDiscrete(rng *rand.Rand, w []float64) int {
	var total float64
	for i, v := range w {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("stats: invalid weight w[%d]=%g", i, v))
		}
		total += v
	}
	if total <= 0 {
		panic("stats: SampleDiscrete with zero total weight")
	}
	u := rng.Float64() * total
	var acc float64
	for i, v := range w {
		acc += v
		if u < acc {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i
		}
	}
	panic("stats: SampleDiscrete unreachable")
}

// Normalize scales w in place so its elements sum to one. It panics when the
// sum is not positive.
func Normalize(w []float64) {
	var total float64
	for _, v := range w {
		total += v
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		panic(fmt.Sprintf("stats: Normalize with invalid total %g", total))
	}
	for i := range w {
		w[i] /= total
	}
}

// Shuffle returns a random permutation of 0..n-1 using rng.
func Shuffle(rng *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// SplitSeed derives a deterministic child seed from a base seed and a stream
// index using SplitMix64, so goroutine-parallel trajectories draw from
// decorrelated deterministic streams regardless of schedule.
func SplitSeed(base int64, stream int) int64 {
	z := uint64(base) + uint64(stream+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// seededRands holds generators between SeededRand uses, so a short-lived
// generator allocates nothing: re-seeding a Source takes nanoseconds, and
// building one allocates its ~5 KB register.
var seededRands = sync.Pool{New: func() any { return NewRand(0) }}

// SeededRand returns a generator, taken from a pool, whose stream is
// exactly rand.New(rand.NewSource(seed))'s. Hand it back with PutRand when
// done, and use it no more after that. Use it for generators that live for
// one call; NewRand for those that outlive it.
func SeededRand(seed int64) *rand.Rand {
	r := seededRands.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// PutRand returns a generator SeededRand gave out to its pool.
func PutRand(r *rand.Rand) { seededRands.Put(r) }

// Linspace returns n evenly spaced values from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("stats: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// Percentile bands for aggregating many trajectories into median/IQR curves.

// Band holds pointwise lower/median/upper curves across a family of series.
type Band struct {
	Lo, Mid, Hi []float64
}

// AggregateBand computes pointwise quantile curves (loQ, 0.5, hiQ) across a
// set of equally long series. Series shorter than the longest are treated as
// holding their final value (right-censored), which matches how trajectories
// with early termination are plotted in the paper.
func AggregateBand(series [][]float64, loQ, hiQ float64) Band {
	if len(series) == 0 {
		panic("stats: AggregateBand of no series")
	}
	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	if maxLen == 0 {
		panic("stats: AggregateBand of empty series")
	}
	b := Band{
		Lo:  make([]float64, maxLen),
		Mid: make([]float64, maxLen),
		Hi:  make([]float64, maxLen),
	}
	col := make([]float64, 0, len(series))
	for t := 0; t < maxLen; t++ {
		col = col[:0]
		for _, s := range series {
			if len(s) == 0 {
				continue
			}
			if t < len(s) {
				col = append(col, s[t])
			} else {
				col = append(col, s[len(s)-1])
			}
		}
		sort.Float64s(col)
		b.Lo[t] = quantileSorted(col, loQ)
		b.Mid[t] = quantileSorted(col, 0.5)
		b.Hi[t] = quantileSorted(col, hiQ)
	}
	return b
}

// Pearson returns the Pearson correlation coefficient of x and y. It panics
// when lengths differ or are < 2, and returns 0 when either variable is
// constant.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Pearson length mismatch")
	}
	if len(x) < 2 {
		panic("stats: Pearson needs at least two samples")
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns the Spearman rank correlation of x and y: Pearson on the
// ranks, with ties receiving their average rank.
func Spearman(x, y []float64) float64 {
	return Pearson(Ranks(x), Ranks(y))
}

// Ranks returns the 1-based average ranks of x (ties share the mean of the
// ranks they span).
func Ranks(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
