package gp

import (
	"errors"
	"fmt"
	"math"

	"alamr/internal/mat"
	"alamr/internal/obs"
)

// Append adds one training sample to a fitted GP without re-optimizing
// hyperparameters, extending the Cholesky factor by a rank-1 border in
// O(n²) arithmetic. This is the fast path of the active-learning loop
// (Algorithm 1 in the paper): hyperparameters are re-optimized only
// periodically via Fit, while every iteration's model update uses Append.
//
// Storage grows with amortized capacity doubling: the packed Cholesky
// factor, the design matrix, and the target slice all extend by append
// rather than by reallocating and copying every call, so a burst of k
// appends moves O(n² + k²) memory instead of O(k·n²).
func (g *GP) Append(x []float64, y float64) error {
	if !g.fitted {
		return errors.New("gp: Append before Fit")
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return errors.New("gp: non-finite target in Append")
	}
	if len(x) != g.x.Cols() {
		return fmt.Errorf("gp: Append input dim %d, want %d", len(x), g.x.Cols())
	}
	n := g.x.Rows()

	// Border column: k(x_i, x_new) for existing rows, via the batch row
	// evaluator (hoisted hyperparameter transforms, precomputed norms).
	k := make([]float64, n)
	g.rowEval.Eval(x, 0, k)
	noise2 := math.Exp(2 * g.logNoise)
	kss := g.kern.Eval(x, x) + noise2 + g.chol.Jitter()

	// New factor row: l = L⁻¹ k, pivot d = sqrt(kss − lᵀl).
	l := g.chol.ForwardSolveVec(k)
	d2 := kss - mat.Dot(l, l)
	if d2 <= 0 {
		// Duplicate or near-duplicate input: fall back to a guarded pivot
		// proportional to the noise floor rather than failing.
		d2 = math.Max(noise2*1e-8, 1e-12)
	}
	g.chol.Extend(l, math.Sqrt(d2))

	// Grow the design matrix and (centred) targets. The centring mean is
	// kept fixed between full fits — a shifting mean would silently change
	// the values of all previous residuals.
	g.x = g.x.AppendRow(x)
	g.y = append(g.y, y-g.yMean)
	// Hyperparameters are unchanged on this path, so the row evaluator only
	// needs to absorb the new row — O(d) instead of rebuilding all n norms.
	g.rowEval.Extend(g.x)

	g.alpha = g.chol.SolveVec(g.y)
	g.lml = -0.5*mat.Dot(g.y, g.alpha) - 0.5*g.chol.LogDet() - 0.5*float64(n+1)*math.Log(2*math.Pi)
	obs.GPExtends.Inc()
	obs.GPTrainRows.Set(float64(n + 1))
	for _, c := range g.caches {
		c.extendAppend()
	}
	return nil
}

// Refit re-optimizes hyperparameters on the GP's current training set
// (warm-started from the present values) and rebuilds the posterior. Use
// together with Append: Append every iteration, Refit every few.
func (g *GP) Refit() error {
	if g.x == nil || g.x.Rows() == 0 {
		return ErrNoData
	}
	if !g.cfg.NoOptimize && len(g.y) >= 2 {
		g.optimizeHyperparams()
	}
	return g.precompute()
}
