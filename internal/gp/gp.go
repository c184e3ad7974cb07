// Package gp implements Gaussian process regression (GPR) with marginal
// likelihood hyperparameter optimization, the surrogate model the paper
// trains incrementally for the cost and memory responses (paper §III).
//
// The model is
//
//	y = f(x) + N(0, σ_n²),   f ~ GP(0, k)
//
// with posterior predictive mean and variance at x_* (paper eq. 2–3)
//
//	μ_* = k_*ᵀ K_y⁻¹ y
//	σ_*² = k_** − k_*ᵀ K_y⁻¹ k_*,   K_y = K + σ_n² I
//
// Hyperparameters (kernel parameters and log σ_n) are chosen by maximizing
// the log marginal likelihood (paper eq. 8–9) with analytic gradients and a
// warm-started multi-restart L-BFGS, mirroring the role scikit-learn 0.18's
// GaussianProcessRegressor plays in the original study.
package gp

import (
	"errors"
	"fmt"
	"math"

	"alamr/internal/kernel"
	"alamr/internal/mat"
	"alamr/internal/obs"
	"alamr/internal/optimize"
	"alamr/internal/stats"
)

// Config controls fitting.
type Config struct {
	// Noise is the initial noise standard deviation σ_n (default 0.1).
	Noise float64
	// FixedNoise freezes σ_n at its initial value instead of optimizing it.
	FixedNoise bool
	// Restarts is the number of random hyperparameter restarts in addition
	// to the warm start (default 2).
	Restarts int
	// NoOptimize skips hyperparameter optimization entirely and keeps the
	// kernel's current parameters (useful for tests and ablations).
	NoOptimize bool
	// NormalizeY subtracts the training-target mean before fitting and adds
	// it back at prediction time. Recommended for responses with a large
	// offset, such as log-transformed costs.
	NormalizeY bool
	// Seed drives the random restarts. Fits are deterministic given a seed.
	Seed int64
	// MaxIter bounds the L-BFGS iterations per restart (default 100).
	MaxIter int
	// ParamBounds clamps the log-space search region for restarts
	// (default ±5 around 0).
	LowerBound, UpperBound float64
}

func (c *Config) setDefaults() {
	if c.Noise <= 0 {
		c.Noise = 0.1
	}
	if c.Restarts < 0 {
		c.Restarts = 0
	} else if c.Restarts == 0 {
		c.Restarts = 2
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 100
	}
	if c.LowerBound == 0 && c.UpperBound == 0 {
		c.LowerBound, c.UpperBound = -5, 5
	}
}

// GP is a Gaussian process regressor. Create one with New, then call Fit.
type GP struct {
	kern     kernel.Kernel
	cfg      Config
	logNoise float64

	x      *mat.Dense
	y      []float64 // centred targets
	yMean  float64
	chol   *mat.Cholesky
	alpha  []float64
	lml    float64
	fitted bool
	gen    uint64 // posterior generation (see Model.Generation)

	// rowEval is the kernel-row fast path over the current training matrix
	// and hyperparameters: it evaluates a full row of k(x, ·) with hoisted
	// hyperparameter transforms and precomputed squared norms. precompute
	// rebuilds it (hyperparameters may have changed); Append grows it by one
	// row in O(d).
	rowEval kernel.RowEval

	// caches are the attached incremental scoring caches; precompute marks
	// them stale (new hyperparameters invalidate every stored solve) and
	// Append extends them by one border step.
	caches []*ScoringCache
}

// New creates a GP with the given kernel prototype and configuration. The
// kernel is cloned; the caller's copy is never mutated.
func New(k kernel.Kernel, cfg Config) *GP {
	cfg.setDefaults()
	return &GP{
		kern:     k.Clone(),
		cfg:      cfg,
		logNoise: math.Log(cfg.Noise),
	}
}

// Kernel returns the GP's kernel (with fitted hyperparameters after Fit).
// Callers must not mutate it.
func (g *GP) Kernel() kernel.Kernel { return g.kern }

// NoiseStd returns the current noise standard deviation σ_n.
func (g *GP) NoiseStd() float64 { return math.Exp(g.logNoise) }

// LogMarginalLikelihood returns the LML at the fitted hyperparameters.
func (g *GP) LogMarginalLikelihood() float64 {
	if !g.fitted {
		panic("gp: LogMarginalLikelihood before Fit")
	}
	return g.lml
}

// SetRestarts adjusts how many random restarts subsequent hyperparameter
// optimizations perform in addition to the warm start (0 disables them).
func (g *GP) SetRestarts(n int) {
	if n < 0 {
		n = 0
	}
	g.cfg.Restarts = n
}

// NumTrain reports the number of training samples.
func (g *GP) NumTrain() int {
	if g.x == nil {
		return 0
	}
	return g.x.Rows()
}

// Hyperparams returns the full log-space hyperparameter vector
// (kernel params followed by log σ_n).
func (g *GP) Hyperparams() []float64 {
	p := g.kern.Params()
	return append(p, g.logNoise)
}

// SetHyperparams installs a log-space hyperparameter vector of the form
// returned by Hyperparams.
func (g *GP) SetHyperparams(p []float64) {
	want := g.kern.NumParams() + 1
	if len(p) != want {
		panic(fmt.Sprintf("gp: SetHyperparams got %d params, want %d", len(p), want))
	}
	g.kern.SetParams(p[:want-1])
	g.logNoise = p[want-1]
	g.fitted = false
}

// ErrNoData is returned by Fit when the training set is empty.
var ErrNoData = errors.New("gp: empty training set")

// Fit trains the GP on (x, y): optimizes hyperparameters by LML ascent
// (unless cfg.NoOptimize) and precomputes the posterior. The current
// hyperparameters are always used as the warm start, which implements the
// paper's "use old model's parameters as a starting point" refitting note
// (Algorithm 1).
func (g *GP) Fit(x *mat.Dense, y []float64) error {
	if x == nil || x.Rows() == 0 {
		return ErrNoData
	}
	if x.Rows() != len(y) {
		return fmt.Errorf("gp: x has %d rows but y has %d values", x.Rows(), len(y))
	}
	if !mat.AllFinite(y) {
		return errors.New("gp: non-finite training targets")
	}

	g.x = x.Clone()
	g.yMean = 0
	if g.cfg.NormalizeY {
		g.yMean = mat.SumVec(y) / float64(len(y))
	}
	g.y = make([]float64, len(y))
	for i, v := range y {
		g.y[i] = v - g.yMean
	}

	if !g.cfg.NoOptimize && len(y) >= 2 {
		g.optimizeHyperparams()
	}
	return g.precompute()
}

// nlmlObjective builds the negative-LML objective over the log-space
// hyperparameter vector θ = (kernel params..., log σ_n). When noise is
// fixed, the last component is omitted. Every evaluation of one objective
// shares one lmlWorkspace over the training design.
func (g *GP) nlmlObjective() optimize.Objective {
	nk := g.kern.NumParams()
	k := g.kern.Clone()
	ws := newLMLWorkspace(g.x)
	return func(theta []float64) (float64, []float64) {
		k.SetParams(theta[:nk])
		logNoise := g.logNoise
		if !g.cfg.FixedNoise {
			logNoise = theta[nk]
		}
		lml, grad, err := ws.lml(k, logNoise, g.y, !g.cfg.FixedNoise)
		if err != nil {
			// Non-PD covariance at these hyperparameters: treat as a cliff.
			bad := make([]float64, len(theta))
			return math.Inf(1), bad
		}
		neg := make([]float64, len(theta))
		for i := range grad {
			neg[i] = -grad[i]
		}
		return -lml, neg
	}
}

func (g *GP) optimizeHyperparams() {
	nk := g.kern.NumParams()
	dim := nk
	if !g.cfg.FixedNoise {
		dim++
	}
	warm := make([]float64, dim)
	copy(warm, g.kern.Params())
	if !g.cfg.FixedNoise {
		warm[nk] = g.logNoise
	}

	lower := make([]float64, dim)
	upper := make([]float64, dim)
	for i := range lower {
		lower[i] = g.cfg.LowerBound
		upper[i] = g.cfg.UpperBound
	}
	rng := stats.SeededRand(g.cfg.Seed)
	res := optimize.MultiStart(g.nlmlObjective(), [][]float64{warm}, optimize.MultiStartConfig{
		Restarts: g.cfg.Restarts,
		Lower:    lower,
		Upper:    upper,
		LBFGS:    optimize.LBFGSConfig{MaxIter: g.cfg.MaxIter, GradTol: 1e-5},
	}, rng)
	stats.PutRand(rng)
	if res.X != nil && mat.AllFinite(res.X) && !math.IsInf(res.F, 0) {
		g.kern.SetParams(res.X[:nk])
		if !g.cfg.FixedNoise {
			g.logNoise = res.X[nk]
		}
	}
}

// precompute factorizes K_y and solves for α at the current hyperparameters.
func (g *GP) precompute() error {
	ky := kernel.Gram(g.kern, g.x)
	noise2 := math.Exp(2 * g.logNoise)
	ky.AddDiag(noise2)
	ch, err := mat.NewCholeskyJitter(ky, 1e-10, 1e-4)
	if err != nil {
		return fmt.Errorf("gp: covariance factorization failed: %w", err)
	}
	g.chol = ch
	g.alpha = ch.SolveVec(g.y)
	g.rowEval = kernel.NewRowEval(g.kern, g.x)
	n := float64(len(g.y))
	g.lml = -0.5*mat.Dot(g.y, g.alpha) - 0.5*ch.LogDet() - 0.5*n*math.Log(2*math.Pi)
	g.fitted = true
	g.gen++
	obs.GPRebuilds.Inc()
	obs.GPTrainRows.Set(n)
	for _, c := range g.caches {
		c.invalidate()
	}
	return nil
}

// Generation implements Model: it advances on every posterior rebuild (Fit,
// Refit, Load), never on Append.
func (g *GP) Generation() uint64 { return g.gen }

// Predict returns the posterior mean and standard deviation of the latent
// function at each row of xs. Variances are clamped at zero before the
// square root, the standard guard against roundoff. Test points are
// independent and are evaluated in parallel; each point's result is
// computed in full by one goroutine, so the output does not depend on the
// worker count.
func (g *GP) Predict(xs *mat.Dense) (mean, std []float64) {
	if !g.fitted {
		panic("gp: Predict before Fit")
	}
	m := xs.Rows()
	mean = make([]float64, m)
	std = make([]float64, m)
	n := g.x.Rows()
	mat.ParallelFor(m, mat.ChunkFor(n*n/2+32*n), func(lo, hi int) {
		g.predictRange(xs, mean, std, lo, hi)
	})
	return mean, std
}

// predictRange scores rows [lo, hi) with one scratch pair for the whole
// range: predictOneInto reuses it for every point, so the hot path
// allocates nothing per candidate. Model state is read-only here and the
// scratch is call-local, so any number of predictRange calls (and through
// them Predict / PredictInto calls) may run concurrently on one fitted
// model.
func (g *GP) predictRange(xs *mat.Dense, mean, std []float64, lo, hi int) {
	n := g.x.Rows()
	scratch := make([]float64, 2*n)
	ks, v := scratch[:n], scratch[n:]
	for i := lo; i < hi; i++ {
		mean[i], std[i] = g.predictOneInto(xs.Row(i), ks, v)
	}
}

// PredictInto implements Model: Predict into caller-owned buffers, on the
// calling goroutine. The per-candidate arithmetic is Predict's, so the
// output is bitwise-equal to it.
func (g *GP) PredictInto(xs *mat.Dense, mean, std []float64) {
	if !g.fitted {
		panic("gp: Predict before Fit")
	}
	m := xs.Rows()
	if len(mean) != m || len(std) != m {
		panic(fmt.Sprintf("gp: PredictInto buffers %d/%d for %d rows", len(mean), len(std), m))
	}
	g.predictRange(xs, mean, std, 0, m)
}

// PredictOne returns the posterior mean and standard deviation at a single
// point.
func (g *GP) PredictOne(x []float64) (mean, std float64) {
	if !g.fitted {
		panic("gp: PredictOne before Fit")
	}
	n := g.x.Rows()
	scratch := make([]float64, 2*n)
	return g.predictOneInto(x, scratch[:n], scratch[n:])
}

// predictOneInto computes one posterior (mean, std) using caller-provided
// scratch: ks and v must each have length NumTrain and are overwritten.
func (g *GP) predictOneInto(x, ks, v []float64) (float64, float64) {
	g.rowEval.Eval(x, 0, ks)
	mean := mat.Dot(ks, g.alpha) + g.yMean
	// σ² = k** − vᵀv with v = L⁻¹ k*. The serial solve is bitwise-identical
	// to the parallel one; callers of this method are themselves chunks of a
	// ParallelFor, so nested dispatch would only allocate.
	g.chol.ForwardSolveVecTo(v, ks)
	variance := g.kern.Eval(x, x) - mat.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}

// lmlWorkspace is the storage one hyperparameter search reuses across its
// LML evaluations: the kernel's gradient workspace over the fixed training
// design (K, ∂K/∂θ and, for the RBF, the pairwise distances) and the two
// n×n buffers of the inverse. Only the packed Cholesky factor and O(n)
// vectors are allocated per evaluation.
type lmlWorkspace struct {
	gram    *kernel.GradWorkspace
	u, kinv *mat.Dense
}

func newLMLWorkspace(x *mat.Dense) *lmlWorkspace {
	n := x.Rows()
	return &lmlWorkspace{
		gram: kernel.NewGradWorkspace(x),
		u:    mat.NewDense(n, n, nil),
		kinv: mat.NewDense(n, n, nil),
	}
}

// lml evaluates the LML of targets y and its gradient with respect to the
// log-space hyperparameters (kernel params, then log σ_n when withNoise is
// true), using the standard identity
//
//	∂LML/∂θ = ½ tr((ααᵀ − K_y⁻¹) ∂K_y/∂θ).
func (w *lmlWorkspace) lml(k kernel.Kernel, logNoise float64, y []float64, withNoise bool) (float64, []float64, error) {
	n := len(y)
	ky, grads := w.gram.GramGrad(k)
	noise2 := math.Exp(2 * logNoise)
	ky.AddDiag(noise2)
	ch, err := mat.NewCholeskyJitter(ky, 1e-10, 1e-6)
	if err != nil {
		return 0, nil, err
	}
	alpha := ch.SolveVec(y)
	lml := -0.5*mat.Dot(y, alpha) - 0.5*ch.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)

	kinv := ch.InverseTo(w.u, w.kinv)
	np := k.NumParams()
	dim := np
	if withNoise {
		dim++
	}
	grad := make([]float64, dim)
	for t := 0; t < np; t++ {
		grad[t] = 0.5 * traceInnerDiff(alpha, kinv, grads[t])
	}
	if withNoise {
		// ∂K_y/∂(log σ_n) = 2 σ_n² I, so the trace reduces to the diagonal.
		var tr float64
		for i := 0; i < n; i++ {
			tr += alpha[i]*alpha[i] - kinv.At(i, i)
		}
		grad[np] = 0.5 * tr * 2 * noise2
	}
	return lml, grad, nil
}

// traceInnerDiff computes tr((ααᵀ − K⁻¹)·D) = αᵀDα − tr(K⁻¹D) without
// forming ααᵀ. The trace term is the Frobenius inner product of K⁻¹ and D,
// evaluated row-parallel with a deterministic block-ordered reduction.
func traceInnerDiff(alpha []float64, kinv, d *mat.Dense) float64 {
	quad := mat.Dot(alpha, d.MulVec(alpha))
	return quad - mat.TraceMulElem(kinv, d)
}
