package engine

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"alamr/internal/gp"
	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// benchFull opts the scale benchmarks into the exact-model pool passes
// (O(m·n²) — tens of minutes at m=10⁵). Off by default so `make
// bench-scale` finishes in sparse/treed time; pass `-args -full` to
// measure the exact family too.
var benchFull = flag.Bool("full", false, "include the slow exact-model scale benchmark cases")

// The scale benchmark suite measures one pool-scoring pass — the
// per-iteration cost of an AL campaign's selection step — across surrogate
// families (exact where feasible, sparse, treed), training-set sizes, pool
// sizes, and pool layouts (materialized, the streamed full pass, and the
// streamed pruned pass). A streamed op is one Select after one absorbed
// pick, as in a campaign: the previous winner is removed and appended to
// both models (untimed), so the pruned pass re-scores a moved posterior,
// not an unchanged one. The full pass ("streamed") resets the prune bounds
// before each timed Select, as a cost refit does; the pruned pass
// ("streamed-approx", a tag kept for the ledger) keeps them.
// `make bench-scale` records it into BENCH_al.json; `make bench-scale-smoke`
// runs the TestScaleSmoke correctness twin in CI.

const scaleDim = 5

func scaleTarget(row []float64) float64 {
	return math.Sin(2*row[0])*math.Cos(row[1]) + 0.3*row[2]*row[3] - 0.2*row[4]
}

func scaleTrainSet(rng *rand.Rand, n int) (*mat.Dense, []float64, []float64) {
	x := mat.NewDense(n, scaleDim, nil)
	yc := make([]float64, n)
	ym := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = rng.Float64() * 3
		}
		yc[i] = scaleTarget(row) + 0.05*rng.NormFloat64()
		ym[i] = 0.5*row[0] + 0.25*row[4] + 0.05*rng.NormFloat64()
	}
	return x, yc, ym
}

// scaleGrid factors m into a 5-axis Cartesian grid (m must be a multiple of
// 10^4): {m/10^4, 10, 10, 10, 10}, axis values spread over [0, 3].
func scaleGrid(m int) GridSource {
	lens := []int{m / 10000, 10, 10, 10, 10}
	axes := make([][]float64, len(lens))
	for j, l := range lens {
		ax := make([]float64, l)
		for i := range ax {
			if l == 1 {
				ax[i] = 1.5
			} else {
				ax[i] = 3 * float64(i) / float64(l-1)
			}
		}
		axes[j] = ax
	}
	return GridSource{Axes: axes}
}

// fitScaleModels builds and fits a cost/mem surrogate pair of the named
// family on n synthetic observations. Hyperparameters are fixed: the suite
// measures scoring, not optimization.
func fitScaleModels(tb testing.TB, model string, n int) (gp.Model, gp.Model) {
	tb.Helper()
	deps := ModelDeps{
		Kernel: kernel.NewRBF(0.8, 1.2),
		GP:     gp.Config{Noise: 0.1, FixedNoise: true, NoOptimize: true},
	}
	spec := ModelSpec{Name: model}
	rng := rand.New(rand.NewSource(int64(n)))
	x, yc, ym := scaleTrainSet(rng, n)
	cost, err := BuildModel(spec, deps)
	if err != nil {
		tb.Fatal(err)
	}
	mem, err := BuildModel(spec, deps)
	if err != nil {
		tb.Fatal(err)
	}
	if err := cost.Fit(x, yc); err != nil {
		tb.Fatal(err)
	}
	if err := mem.Fit(x, ym); err != nil {
		tb.Fatal(err)
	}
	return cost, mem
}

// materializedPass is the baseline selection step: predict the whole pool
// through both surrogates, as a materialized scorer does, and scan for the
// cost σ argmax.
func materializedPass(cost, mem gp.Model, poolX *mat.Dense) (int, float64) {
	_, sigC := cost.Predict(poolX)
	mem.Predict(poolX)
	best, bestSigma := -1, math.Inf(-1)
	for i, sg := range sigC {
		if sg > bestSigma {
			best, bestSigma = i, sg
		}
	}
	return best, bestSigma
}

// exactFeasible bounds the exact GP to combinations whose O(m·n²) scoring
// pass completes in benchmark-tolerable time.
func exactFeasible(n, m int) bool { return n <= 2000 && m <= 100000 }

func BenchmarkScaleScoring(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		for _, model := range []string{ModelExact, ModelSparse, ModelTreed} {
			var cost, mem gp.Model // fitted lazily, shared across pool sizes
			for _, m := range []int{100000, 1000000} {
				if model == ModelExact && !exactFeasible(n, m) {
					continue
				}
				if model == ModelExact && m >= 100000 && !*benchFull {
					b.Logf("skipping n=%d/m=%d/model=%s: exact-model pool pass is O(m·n²); pass -args -full to include it", n, m, model)
					continue
				}
				if cost == nil {
					cost, mem = fitScaleModels(b, model, n)
				}
				src := scaleGrid(m)
				name := fmt.Sprintf("n=%d/m=%d/model=%s", n, m, model)

				// The workers axis sweeps the same pass at 1, 2, 4, and
				// GOMAXPROCS mat workers (deduplicated); bench-summary
				// derives its speedup column from the workers=1 row.
				for _, wc := range streamWorkerCounts() {
					wc := wc
					b.Run(fmt.Sprintf("%s/pool=materialized/workers=%d", name, wc), func(b *testing.B) {
						prev := mat.SetWorkers(wc)
						defer mat.SetWorkers(prev)
						poolX := mat.NewDense(m, scaleDim, src.Rows(0, m, make([]float64, m*scaleDim)))
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							materializedPass(cost, mem, poolX)
						}
					})
					for _, mode := range []struct {
						tag  string
						full bool
					}{{"streamed", true}, {"streamed-approx", false}} {
						b.Run(fmt.Sprintf("%s/pool=%s/workers=%d", name, mode.tag, wc), func(b *testing.B) {
							prev := mat.SetWorkers(wc)
							defer mat.SetWorkers(prev)
							// Absorbing picks mutates the models: each case
							// fits its own copies.
							cost, mem := fitScaleModels(b, model, n)
							st := newStreamState(src, cost, mem, streamShard)
							_, pick := st.Select() // steady state: bounds primed before timing
							row := make([]float64, scaleDim)
							b.ReportAllocs()
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								b.StopTimer()
								absorbPick(b, st, src, cost, mem, pick, row)
								if mode.full {
									st.invalidateBounds()
								}
								b.StartTimer()
								_, pick = st.Select()
							}
						})
					}
				}
			}
		}
	}
}

// absorbPick plays one campaign step between Selects: candidate id leaves
// the pool and its synthetic measurement joins both models.
func absorbPick(tb testing.TB, st *StreamState, src CandidateSource, cost, mem gp.Model, id int, x []float64) {
	tb.Helper()
	st.Remove(id)
	x = src.Rows(id, id+1, x)
	if err := cost.Append(x, scaleTarget(x)); err != nil {
		tb.Fatal(err)
	}
	if err := mem.Append(x, 0.5*x[0]+0.25*x[4]); err != nil {
		tb.Fatal(err)
	}
}

// TestScaleSmoke is the CI-sized twin (n=500, m=10^4): for every surrogate
// family the streamed winner must be the materialized argmax, on the full
// first pass and on the pruned passes after it.
func TestScaleSmoke(t *testing.T) {
	const n, m = 500, 10000
	src := scaleGrid(m)
	poolX := mat.NewDense(m, scaleDim, src.Rows(0, m, make([]float64, m*scaleDim)))
	for _, model := range []string{ModelExact, ModelSparse, ModelTreed} {
		cost, mem := fitScaleModels(t, model, n)
		wantID, wantSigma := materializedPass(cost, mem, poolX)
		st := newStreamState(src, cost, mem, 1024)
		for round := 0; round < 3; round++ { // re-select: exercises prune bounds
			c, id := st.Select()
			if c.Len() != 1 {
				t.Fatalf("%s: %d candidates, want the winner alone", model, c.Len())
			}
			if id != wantID || c.SigmaCost[0] != wantSigma {
				t.Fatalf("%s round %d: streamed winner %d (σ %g), materialized argmax %d (σ %g)",
					model, round, id, c.SigmaCost[0], wantID, wantSigma)
			}
			if scored := laneTotals(st).candScored; (round == 0) != (scored == m) {
				t.Fatalf("%s round %d: scored %d of %d candidates, want all on the first pass only",
					model, round, scored, m)
			}
		}
	}
}
