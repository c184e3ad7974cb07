package optimize

import (
	"math"
	"math/rand"

	"alamr/internal/mat"
)

// MultiStartConfig drives repeated local optimizations from different
// starting points: every warm start supplied by the caller plus Restarts
// random points drawn uniformly from [Lower, Upper] per dimension.
type MultiStartConfig struct {
	Restarts int       // random restarts in addition to the warm starts
	Lower    []float64 // per-dimension lower bound for random starts
	Upper    []float64 // per-dimension upper bound for random starts
	LBFGS    LBFGSConfig
}

// MultiStart minimizes obj from each warm start and from cfg.Restarts random
// points, returning the best result found. Whenever L-BFGS fails its line
// search (e.g. on noisy or barely-differentiable objectives), a Nelder–Mead
// polish from the same start competes with it. rng must be non-nil when
// cfg.Restarts > 0.
func MultiStart(obj Objective, warmStarts [][]float64, cfg MultiStartConfig, rng *rand.Rand) Result {
	best := Result{F: math.Inf(1)}
	try := func(x0 []float64) {
		r, err := LBFGS(obj, x0, cfg.LBFGS)
		if err != nil {
			nm := NelderMead(func(x []float64) float64 { f, _ := obj(x); return f }, x0, NelderMeadConfig{})
			if nm.F < r.F {
				r = nm
			}
		}
		if isFinite(r.F) && r.F < best.F {
			best = r
		}
		best.Evals += r.Evals
	}
	for _, w := range warmStarts {
		try(w)
	}
	dim := 0
	if len(warmStarts) > 0 {
		dim = len(warmStarts[0])
	} else if len(cfg.Lower) > 0 {
		dim = len(cfg.Lower)
	}
	for i := 0; i < cfg.Restarts; i++ {
		x0 := make([]float64, dim)
		for j := range x0 {
			lo, hi := -1.0, 1.0
			if j < len(cfg.Lower) {
				lo = cfg.Lower[j]
			}
			if j < len(cfg.Upper) {
				hi = cfg.Upper[j]
			}
			x0[j] = lo + rng.Float64()*(hi-lo)
		}
		try(x0)
	}
	if best.X == nil && len(warmStarts) > 0 {
		// Every attempt diverged; fall back to the first warm start so the
		// caller always receives a usable point.
		f, _ := obj(warmStarts[0])
		best.X = mat.CopyVec(warmStarts[0])
		best.F = f
	}
	return best
}
