package gp

import (
	"math"
	"math/rand"
	"testing"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

func sparseData(rng *rand.Rand, n int) (*mat.Dense, []float64) {
	x := mat.NewDense(n, 2, nil)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = math.Sin(4*a) + 0.5*math.Cos(3*b)
	}
	return x, y
}

func TestSparseFitValidation(t *testing.T) {
	s := NewSparse(kernel.NewRBF(0.3, 1), Config{Noise: 0.05}, 16)
	if err := s.Fit(nil, nil); err == nil {
		t.Fatal("nil fit accepted")
	}
	x := mat.NewDense(2, 1, []float64{0, 1})
	if err := s.Fit(x, []float64{1}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if err := s.Append([]float64{0}, 1); err == nil {
		t.Fatal("append before fit accepted")
	}
}

func TestSparsePredictBeforeFitPanics(t *testing.T) {
	s := NewSparse(kernel.NewRBF(0.3, 1), Config{}, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Predict(mat.NewDense(1, 1, []float64{0}))
}

func TestSparseMatchesExactWhenInducingIsAll(t *testing.T) {
	// With m >= n the SoR posterior mean equals the exact GP's.
	rng := rand.New(rand.NewSource(1))
	x, y := sparseData(rng, 20)
	cfg := Config{Noise: 0.1, FixedNoise: true, NoOptimize: true, NormalizeY: false}
	sp := NewSparse(kernel.NewRBF(0.4, 1), cfg, 20)
	if err := sp.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	ex := New(kernel.NewRBF(0.4, 1), cfg)
	if err := ex.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	probe, _ := sparseData(rng, 8)
	ms, _ := sp.Predict(probe)
	me, _ := ex.Predict(probe)
	for i := range ms {
		if math.Abs(ms[i]-me[i]) > 1e-5 {
			t.Fatalf("mean[%d]: sparse %g exact %g", i, ms[i], me[i])
		}
	}
}

func TestSparseAccuracyWithFewInducing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := sparseData(rng, 300)
	sp := NewSparse(kernel.NewRBF(0.4, 1), Config{Noise: 0.05, FixedNoise: true, NoOptimize: true}, 40)
	if err := sp.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if sp.NumInducing() != 40 {
		t.Fatalf("inducing = %d want 40", sp.NumInducing())
	}
	probeX, probeY := sparseData(rng, 60)
	mean, _ := sp.Predict(probeX)
	var mse float64
	for i := range mean {
		d := mean[i] - probeY[i]
		mse += d * d
	}
	rmse := math.Sqrt(mse / float64(len(mean)))
	if rmse > 0.1 {
		t.Fatalf("sparse RMSE = %g, expected < 0.1 with 40 inducing points", rmse)
	}
}

func TestSparseAppendAbsorbsData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := sparseData(rng, 30)
	sp := NewSparse(kernel.NewRBF(0.4, 1), Config{Noise: 0.05, FixedNoise: true, NoOptimize: true}, 16)
	if err := sp.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		a, b := rng.Float64(), rng.Float64()
		if err := sp.Append([]float64{a, b}, math.Sin(4*a)+0.5*math.Cos(3*b)); err != nil {
			t.Fatal(err)
		}
	}
	if sp.NumTrain() != 50 {
		t.Fatalf("train = %d want 50", sp.NumTrain())
	}
	mean, _ := sp.Predict(mat.NewDense(1, 2, []float64{0.5, 0.5}))
	want := math.Sin(2) + 0.5*math.Cos(1.5)
	if math.Abs(mean[0]-want) > 0.15 {
		t.Fatalf("mean = %g want ~%g", mean[0], want)
	}
}

func TestSparseDuplicateRowsInducing(t *testing.T) {
	// All-duplicate data: greedy selection stops early instead of looping.
	n := 20
	x := mat.NewDense(n, 1, nil)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 0.5)
		y[i] = 1
	}
	sp := NewSparse(kernel.NewRBF(0.3, 1), Config{Noise: 0.1, FixedNoise: true, NoOptimize: true}, 8)
	if err := sp.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if sp.NumInducing() != 1 {
		t.Fatalf("inducing = %d want 1 for duplicate data", sp.NumInducing())
	}
}

func TestSparseRefitAndInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := sparseData(rng, 60)
	var m Model = NewSparse(kernel.NewRBF(0.4, 1), Config{Noise: 0.05, Seed: 5}, 24)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	m.SetRestarts(0)
	if err := m.Refit(); err != nil {
		t.Fatal(err)
	}
	h := m.Hyperparams()
	if len(h) != 3 {
		t.Fatalf("hyperparams = %d want 3", len(h))
	}
	_, std := m.Predict(x)
	for _, v := range std {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("bad std %g", v)
		}
	}
}

// countingKernel counts SetParams calls across all its clones: one per
// objective evaluation of a hyperparameter search.
type countingKernel struct {
	kernel.Kernel
	sets *int
}

func (k countingKernel) SetParams(p []float64) { *k.sets++; k.Kernel.SetParams(p) }
func (k countingKernel) Clone() kernel.Kernel  { return countingKernel{k.Kernel.Clone(), k.sets} }

// A sparse refit after SetRestarts(0) runs the warm-started search alone,
// as the exact GP and treed leaves do: fewer evaluations than the same
// refit with the default two random restarts, and exactly as many as an
// exact GP searching the same inducing subset without restarts.
func TestSparseRefitHonoursSetRestarts(t *testing.T) {
	evals := func(restarts int) (sparse, exact int) {
		rng := rand.New(rand.NewSource(4))
		x, y := sparseData(rng, 60)
		n := 0
		s := NewSparse(countingKernel{kernel.NewRBF(0.4, 1), &n}, Config{Noise: 0.05, Seed: 5}, 24)
		if err := s.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		s.SetRestarts(restarts)
		x2, y2 := sparseData(rng, 10)
		for i := 0; i < 10; i++ {
			if err := s.Append(x2.Row(i), y2[i]); err != nil {
				t.Fatal(err)
			}
		}
		// The exact GP the refit runs, from the same warm start.
		m := 0
		g := New(countingKernel{s.kern.Clone(), &m}, Config{Noise: math.Exp(s.logNoise), Seed: 5})
		g.SetRestarts(restarts)
		z := greedyInducing(s.x, s.m)
		zy := make([]float64, z.Rows())
		for i := range zy {
			bestD, bestJ := math.Inf(1), 0
			for j := 0; j < s.x.Rows(); j++ {
				if d := mat.SqDist(z.Row(i), s.x.Row(j)); d < bestD {
					bestD, bestJ = d, j
				}
			}
			zy[i] = s.y[bestJ]
		}
		if err := g.Fit(z, zy); err != nil {
			t.Fatal(err)
		}
		n = 0
		if err := s.Refit(); err != nil {
			t.Fatal(err)
		}
		// The sparse refit also installs the result on its own kernel.
		return n - 1, m
	}
	warm, warmExact := evals(0)
	restarted, _ := evals(2)
	if warm != warmExact {
		t.Fatalf("sparse refit after SetRestarts(0) ran %d evaluations, the warm-start-only exact search %d", warm, warmExact)
	}
	if warm >= restarted {
		t.Fatalf("SetRestarts(0) refit ran %d evaluations, not fewer than the %d with two restarts", warm, restarted)
	}
}

func TestGreedyInducingSpaceFilling(t *testing.T) {
	// Points on a line: the first few inducing picks must include both
	// extremes.
	n := 11
	x := mat.NewDense(n, 1, nil)
	for i := 0; i < n; i++ {
		x.Set(i, 0, float64(i)/10)
	}
	z := greedyInducing(x, 3)
	vals := []float64{z.At(0, 0), z.At(1, 0), z.At(2, 0)}
	hasZero, hasOne := false, false
	for _, v := range vals {
		if v == 0 {
			hasZero = true
		}
		if v == 1 {
			hasOne = true
		}
	}
	if !hasZero || !hasOne {
		t.Fatalf("greedy selection missed the extremes: %v", vals)
	}
}

func BenchmarkSparseVsExactAppend(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x, y := sparseData(rng, 300)
	b.Run("sparse-m32", func(b *testing.B) {
		sp := NewSparse(kernel.NewRBF(0.4, 1), Config{Noise: 0.05, NoOptimize: true}, 32)
		if err := sp.Fit(x, y); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sp.Append([]float64{rng.Float64(), rng.Float64()}, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		ex := New(kernel.NewRBF(0.4, 1), Config{Noise: 0.05, NoOptimize: true})
		if err := ex.Fit(x, y); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ex.Append([]float64{rng.Float64(), rng.Float64()}, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}
