package gp

import (
	"math/rand"
	"strconv"
	"testing"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

var gpBenchSizes = []struct {
	name string
	n    int
}{
	{"50", 50},
	{"200", 200},
	{"600", 600},
	{"1920", 1920},
}

func benchTraining(n, d int) (*mat.Dense, []float64) {
	rng := rand.New(rand.NewSource(int64(n)))
	x := mat.NewDense(n, d, nil)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		y[i] = row[0]*row[0] + 0.1*rng.NormFloat64()
	}
	return x, y
}

// BenchmarkFitNoOpt measures Fit with hyperparameter optimization off:
// kernel-matrix assembly + Cholesky factorization + the alpha solve. This is
// the acceptance-criteria benchmark at n=600.
func BenchmarkFitNoOpt(b *testing.B) {
	for _, bs := range gpBenchSizes {
		if testing.Short() && bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			x, y := benchTraining(bs.n, 2)
			g := New(kernel.NewRBF(1, 1), Config{NoOptimize: true, Seed: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitLMLGradient isolates one LML+gradient evaluation, the unit of
// work inside every L-BFGS iteration of hyperparameter optimization.
func BenchmarkFitLMLGradient(b *testing.B) {
	for _, bs := range gpBenchSizes {
		if bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			x, y := benchTraining(bs.n, 2)
			k := kernel.NewRBF(1, 1)
			ws := newLMLWorkspace(x)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ws.lml(k, -1, y, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLML times one RBF LML+gradient evaluation at the sizes a
// hyperparameter search sees (the sparse surrogate's 128 inducing points,
// exact GPs up to a few hundred rows): "workspace" is the search's reused
// lmlWorkspace, "oracle" the fresh-allocation composition it replaced.
// The hyperparameters move every iteration, as they do along a search.
func BenchmarkLML(b *testing.B) {
	for _, n := range []int{50, 70, 128, 200} {
		x, y := benchTraining(n, 5)
		thetas := [][]float64{{-0.5, 0.2}, {-0.4, 0.1}, {-0.6, 0.3}}
		b.Run(strconv.Itoa(n)+"/workspace", func(b *testing.B) {
			ws := newLMLWorkspace(x)
			k := kernel.NewRBF(1, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.SetParams(thetas[i%len(thetas)])
				if _, _, err := ws.lml(k, -1, y, true); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(strconv.Itoa(n)+"/oracle", func(b *testing.B) {
			k := kernel.NewRBF(1, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.SetParams(thetas[i%len(thetas)])
				if _, _, err := oracleLML(k, -1, x, y, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPredict(b *testing.B) {
	for _, bs := range gpBenchSizes {
		if bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			x, y := benchTraining(bs.n, 2)
			g := New(kernel.NewRBF(1, 1), Config{NoOptimize: true, Seed: 1})
			if err := g.Fit(x, y); err != nil {
				b.Fatal(err)
			}
			xs, _ := benchTraining(256, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Predict(xs)
			}
		})
	}
}

// BenchmarkAppend measures absorbing one sample into a fitted model of size
// n, the per-iteration fast path of Algorithm 1.
func BenchmarkAppend(b *testing.B) {
	for _, bs := range gpBenchSizes {
		if bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			x, y := benchTraining(bs.n, 2)
			g := New(kernel.NewRBF(1, 1), Config{NoOptimize: true, Seed: 1})
			if err := g.Fit(x, y); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			pt := []float64{rng.NormFloat64(), rng.NormFloat64()}
			b.ResetTimer()
			// Rebuild the model after bursts of 64 appends so the measured
			// size stays ~n regardless of b.N (otherwise the model grows
			// with the iteration count and the cost drifts quadratically).
			appended := 0
			for i := 0; i < b.N; i++ {
				if appended == 64 {
					b.StopTimer()
					g = New(kernel.NewRBF(1, 1), Config{NoOptimize: true, Seed: 1})
					if err := g.Fit(x, y); err != nil {
						b.Fatal(err)
					}
					appended = 0
					b.StartTimer()
				}
				if err := g.Append(pt, 1.5); err != nil {
					b.Fatal(err)
				}
				appended++
			}
		})
	}
}

// BenchmarkAppendGrowth measures a burst of appends from n to n+64, the
// pattern an AL trajectory actually executes between refits; it is the
// benchmark for the amortized-growth satellite fix.
func BenchmarkAppendGrowth(b *testing.B) {
	for _, bs := range gpBenchSizes {
		if bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			x, y := benchTraining(bs.n, 2)
			g := New(kernel.NewRBF(1, 1), Config{NoOptimize: true, Seed: 1})
			if err := g.Fit(x, y); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(10))
			pts := make([][]float64, 64)
			for i := range pts {
				pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gi := New(kernel.NewRBF(1, 1), Config{NoOptimize: true, Seed: 1})
				if err := gi.Fit(x, y); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, p := range pts {
					if err := gi.Append(p, 1.5); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSparsePredict times the streamed pool's per-shard call,
// PredictIntoSerial over a 4,096-row shard of d = 5 unit-cube candidates,
// at the inducing-set sizes pool-1e5 campaigns run (50, 60) and at the
// canonical spec's cap (128). ns/candidate is the per-row cost.
func BenchmarkSparsePredict(b *testing.B) {
	const d, rows = 5, 4096
	rng := rand.New(rand.NewSource(11))
	unit := func(n int) *mat.Dense {
		x := mat.NewDense(n, d, nil)
		for i := range x.RawData() {
			x.RawData()[i] = rng.Float64()
		}
		return x
	}
	xs := unit(rows)
	mean, std := make([]float64, rows), make([]float64, rows)
	for _, m := range []int{50, 60, 128} {
		x := unit(2 * m)
		y := make([]float64, x.Rows())
		for i := range y {
			r := x.Row(i)
			y[i] = r[0] - r[1]*r[2] + 0.1*rng.NormFloat64()
		}
		model := NewSparse(kernel.NewRBF(0.6, 1.2), Config{Noise: 0.1, NoOptimize: true}, m)
		if err := model.Fit(x, y); err != nil {
			b.Fatal(err)
		}
		if got := model.NumInducing(); got != m {
			b.Fatalf("%d inducing points, want %d", got, m)
		}
		b.Run("m="+strconv.Itoa(m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				model.PredictIntoSerial(xs, mean, std)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/candidate")
		})
	}
}
