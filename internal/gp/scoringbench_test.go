package gp

import (
	"fmt"
	"math/rand"
	"testing"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// trajIters is the number of AL iterations each benchmark op simulates:
// score the pool with both surrogates, pick the highest-uncertainty
// candidate, absorb it into both models, remove it from the pool.
const trajIters = 16

var benchSink float64

func benchPool(m, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, m)
	for i := range rows {
		r := make([]float64, d)
		for j := range r {
			r[j] = rng.NormFloat64()
		}
		rows[i] = r
	}
	return rows
}

func benchDense(rows [][]float64) *mat.Dense {
	x := mat.NewDense(len(rows), len(rows[0]), nil)
	for i, r := range rows {
		copy(x.Row(i), r)
	}
	return x
}

func benchFitPair(b testing.TB, n, d int) (*GP, *GP) {
	b.Helper()
	x, y := benchTraining(n, d)
	gc := New(kernel.NewRBF(1, 1), Config{Noise: 0.1, NoOptimize: true})
	if err := gc.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	gm := New(kernel.NewRBF(1.3, 0.9), Config{Noise: 0.1, NoOptimize: true})
	if err := gm.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	return gc, gm
}

// scoreTrajectory runs trajIters score→select→append→remove iterations and
// returns a checksum. The pick rule (argmax of summed uncertainty, ties to
// the lower index) is deterministic, so direct and cached runs follow the
// same trajectory.
func scoreTrajectory(b testing.TB, gc, gm *GP, pool [][]float64, cached bool) float64 {
	b.Helper()
	var sum float64
	absorb := func(x []float64, mu float64) {
		if err := gc.Append(x, mu); err != nil {
			b.Fatal(err)
		}
		if err := gm.Append(x, 0.5*mu); err != nil {
			b.Fatal(err)
		}
	}
	if cached {
		cc := NewScoringCache(gc, benchDense(pool))
		defer cc.Close()
		cm := NewScoringCache(gm, benchDense(pool))
		defer cm.Close()
		for it := 0; it < trajIters; it++ {
			muC, sigC := cc.Scores()
			_, sigM := cm.Scores()
			pick := argmaxSum(sigC, sigM)
			sum += sigC[pick]
			absorb(pool[pick], muC[pick])
			cc.Remove(pick)
			cm.Remove(pick)
			pool = append(pool[:pick], pool[pick+1:]...)
		}
		return sum
	}
	for it := 0; it < trajIters; it++ {
		x := benchDense(pool)
		muC, sigC := gc.Predict(x)
		_, sigM := gm.Predict(x)
		pick := argmaxSum(sigC, sigM)
		sum += sigC[pick]
		absorb(pool[pick], muC[pick])
		pool = append(pool[:pick], pool[pick+1:]...)
	}
	return sum
}

func argmaxSum(a, b []float64) int {
	best, bestV := 0, a[0]+b[0]
	for i := 1; i < len(a); i++ {
		if v := a[i] + b[i]; v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// serveTrajectory is the shape of one online campaign's surrogate: a
// ScoringCache over the whole 1,920-configuration grid (d = 5, RBF) on a GP
// grown from 1 to 26 training rows by appends, refitted every 10 rounds (so
// the next Scores rebuilds), one Scores and one removal per round.
func serveTrajectory(b *testing.B, pool [][]float64) float64 {
	b.StopTimer()
	x, y := benchTraining(1, 5)
	g := New(kernel.NewRBF(1, 1), Config{Noise: 0.1, NoOptimize: true})
	if err := g.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	xs := benchDense(pool)
	live := append([][]float64(nil), pool...)
	b.StartTimer()
	c := NewScoringCache(g, xs)
	defer c.Close()
	var sum float64
	for round := 1; round <= 25; round++ {
		mu, sigma := c.Scores()
		pick := argmaxSum(sigma, mu)
		sum += sigma[pick]
		if err := g.Append(live[pick], mu[pick]); err != nil {
			b.Fatal(err)
		}
		if round%10 == 0 {
			if err := g.Refit(); err != nil {
				b.Fatal(err)
			}
		}
		c.Remove(pick)
		live = append(live[:pick], live[pick+1:]...)
	}
	mu, _ := c.Scores()
	return sum + mu[0]
}

// BenchmarkTrajectoryScoring measures the per-iteration candidate-scoring
// work of the AL loop (both surrogates over the whole pool) across training
// sizes n and pool sizes m, direct Predict vs the incremental ScoringCache.
// Each op is a trajIters-iteration trajectory starting from a freshly
// fitted model pair (fitting excluded from the timing). The serve case is
// one online campaign's cache (serveTrajectory).
func BenchmarkTrajectoryScoring(b *testing.B) {
	const d = 5
	b.Run("serve/m=1920/n=1-26", func(b *testing.B) {
		pool := benchPool(1920, d, 99)
		for i := 0; i < b.N; i++ {
			benchSink += serveTrajectory(b, pool)
		}
	})
	for _, n := range []int{50, 200, 600} {
		for _, m := range []int{100, 400} {
			for _, mode := range []string{"direct", "cached"} {
				b.Run(fmt.Sprintf("n=%d/m=%d/%s", n, m, mode), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						gc, gm := benchFitPair(b, n, d)
						pool := benchPool(m, d, 99)
						b.StartTimer()
						benchSink += scoreTrajectory(b, gc, gm, pool, mode == "cached")
					}
				})
			}
		}
	}
}
