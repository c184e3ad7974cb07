package gp

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// serialModel is the prediction surface under test: the batched
// buffer-writing path plus its single-goroutine twin.
type serialModel interface {
	Model
	PredictInto(xs *mat.Dense, mean, std []float64)
	PredictIntoSerial(xs *mat.Dense, mean, std []float64)
}

// serialFixtures fits one model per family on the same synthetic data.
func serialFixtures(t *testing.T, n int) map[string]serialModel {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	x := mat.NewDense(n, 3, nil)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, rng.Float64()*2)
		}
		y[i] = x.Row(i)[0] - 0.5*x.Row(i)[1]*x.Row(i)[2] + 0.1*rng.NormFloat64()
	}
	cfg := Config{Noise: 0.1, NoOptimize: true}
	out := map[string]serialModel{
		"exact":  New(kernel.NewRBF(0.8, 1.1), cfg),
		"sparse": NewSparse(kernel.NewRBF(0.8, 1.1), cfg, 24),
		"treed":  NewTreed(kernel.NewRBF(0.8, 1.1), cfg, 32),
	}
	for name, m := range out {
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return out
}

func serialPool(seed int64, m int) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	xs := mat.NewDense(m, 3, nil)
	for i := 0; i < m; i++ {
		for j := 0; j < 3; j++ {
			xs.Set(i, j, rng.Float64()*2)
		}
	}
	return xs
}

// TestPredictIntoSerialMatchesParallel: for every surrogate family the
// single-goroutine path is bitwise-identical to PredictInto at any worker
// setting — they share the per-candidate arithmetic, so only the dispatch
// differs.
func TestPredictIntoSerialMatchesParallel(t *testing.T) {
	models := serialFixtures(t, 120)
	xs := serialPool(32, 257)
	m := xs.Rows()
	for name, model := range models {
		serialMean := make([]float64, m)
		serialStd := make([]float64, m)
		model.PredictIntoSerial(xs, serialMean, serialStd)
		for _, workers := range []int{1, 4} {
			prev := mat.SetWorkers(workers)
			mean := make([]float64, m)
			std := make([]float64, m)
			model.PredictInto(xs, mean, std)
			mat.SetWorkers(prev)
			if !bitwiseEq(mean, serialMean) || !bitwiseEq(std, serialStd) {
				t.Fatalf("%s: PredictInto at %d workers diverges from PredictIntoSerial", name, workers)
			}
		}
	}
}

// TestPredictIntoSerialReentrant pins the concurrency contract the
// engine's shard workers rely on: many goroutines may call
// PredictIntoSerial on one fitted model at once (model state is read-only,
// scratch is call-local). Runs under -race via the race make target.
func TestPredictIntoSerialReentrant(t *testing.T) {
	models := serialFixtures(t, 90)
	xs := serialPool(33, 192)
	m := xs.Rows()
	for name, model := range models {
		want := make([]float64, 2*m)
		model.PredictIntoSerial(xs, want[:m], want[m:])
		const lanes = 8
		got := make([][]float64, lanes)
		var wg sync.WaitGroup
		for l := 0; l < lanes; l++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				buf := make([]float64, 2*m)
				model.PredictIntoSerial(xs, buf[:m], buf[m:])
				got[l] = buf
			}(l)
		}
		wg.Wait()
		for l := 0; l < lanes; l++ {
			if !bitwiseEq(got[l], want) {
				t.Fatalf("%s: concurrent PredictIntoSerial lane %d diverges from serial result", name, l)
			}
		}
	}
}

// TestTreedPredictRangeAllocs: treed batch prediction must not allocate
// per candidate — the shared scratch regrows only when a larger leaf shows
// up, so a whole shard costs a handful of allocations, not O(rows).
func TestTreedPredictRangeAllocs(t *testing.T) {
	model := serialFixtures(t, 300)["treed"].(*Treed)
	xs := serialPool(34, 512)
	mean := make([]float64, xs.Rows())
	std := make([]float64, xs.Rows())
	allocs := testing.AllocsPerRun(5, func() {
		model.PredictIntoSerial(xs, mean, std)
	})
	if allocs > 16 {
		t.Fatalf("treed PredictIntoSerial allocates %.0f times per 512-row batch, want O(leaf growth) <= 16", allocs)
	}
}

// TestSparsePredictPositionIndependent: a row's μ and σ are the bits it gets
// when predicted alone, whether it lands in a block of eight or in the
// per-row remainder, at any batch length and offset. The streamed pool
// compacts its shards and so re-positions candidates between passes; it
// relies on this. The fixtures cover the RBF kernel's fused block rows at
// 24 inducing points and at 80 (a forward sweep over two cholBlock
// blocks), and a Matérn kernel, whose block rows are filled per row.
func TestSparsePredictPositionIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	x := mat.NewDense(150, 3, nil)
	y := make([]float64, 150)
	for i := range y {
		for j := 0; j < 3; j++ {
			x.Set(i, j, rng.Float64()*2)
		}
		y[i] = math.Sin(3*x.At(i, 0)) + x.At(i, 1)*x.At(i, 2) + 0.1*rng.NormFloat64()
	}
	cfg := Config{Noise: 0.1, NoOptimize: true}
	models := map[string]*Sparse{
		"rbf-24":    NewSparse(kernel.NewRBF(0.8, 1.1), cfg, 24),
		"rbf-80":    NewSparse(kernel.NewRBF(0.5, 1.1), cfg, 80),
		"matern-24": NewSparse(kernel.NewMatern(2.5, 0.8, 1.1), cfg, 24),
	}
	pool := serialPool(33, 29)
	rows := func(lo, hi int) *mat.Dense {
		d := pool.Cols()
		return mat.NewDense(hi-lo, d, pool.RawData()[lo*d:hi*d])
	}
	for name, model := range models {
		if err := model.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		alone := func(i int) (float64, float64) {
			mean, std := make([]float64, 1), make([]float64, 1)
			model.PredictIntoSerial(rows(i, i+1), mean, std)
			return mean[0], std[0]
		}
		for n := 1; n <= 19; n++ {
			for off := 0; off+n <= pool.Rows(); off += 3 {
				xs := rows(off, off+n)
				for _, serial := range []bool{false, true} {
					mean, std := make([]float64, n), make([]float64, n)
					if serial {
						model.PredictIntoSerial(xs, mean, std)
					} else {
						model.PredictInto(xs, mean, std)
					}
					for i := range mean {
						wm, ws := alone(off + i)
						if math.Float64bits(mean[i]) != math.Float64bits(wm) || math.Float64bits(std[i]) != math.Float64bits(ws) {
							t.Fatalf("%s: n=%d off=%d serial=%v row %d: (%v, %v), alone (%v, %v)", name, n, off, serial, i, mean[i], std[i], wm, ws)
						}
					}
				}
			}
		}
	}
	if got := models["rbf-80"].NumInducing(); got <= 64 {
		t.Fatalf("rbf-80 fixture has %d inducing points, want more than 64", got)
	}
}
