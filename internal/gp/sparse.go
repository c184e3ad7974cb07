package gp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// Sparse is a subset-of-regressors (SoR / Nyström) approximation to GP
// regression, the family of sparse methods the paper's related work (§II-B,
// sparse pseudo-input GPs) flags as compatible with cost- and memory-aware
// AL: m ≪ n inducing points carry the posterior, reducing the per-update
// cost from O(n³) to O(n m²).
//
// With inducing set Z, K_mm = k(Z,Z), K_nm = k(X,Z), and noise σ²:
//
//	A  = K_mm + σ⁻² K_nmᵀ K_nm
//	μ* = σ⁻² k_*mᵀ A⁻¹ K_nmᵀ y
//	v* = k_*mᵀ A⁻¹ k_*m        (SoR predictive variance)
//
// Hyperparameters are re-optimized on the inducing subset with an exact GP
// (a standard, documented heuristic), then projected onto the full data.
//
// Append is incremental: absorbing one observation adds exactly one rank-1
// term σ⁻² k_m k_mᵀ to A and one σ⁻² y·k_m term to the projected targets,
// so the factor is updated by a cholupdate in O(m²) instead of rebuilding
// the O(n·m²) projection. Attached SparseScoringCaches ride the same
// update through a Sherman-Morrison step, O(m) per candidate.
type Sparse struct {
	kern     kernel.Kernel
	cfg      Config
	m        int
	logNoise float64

	x     *mat.Dense // all training inputs
	y     []float64  // centred targets
	yMean float64

	z      *mat.Dense // inducing inputs
	aChol  *mat.Cholesky
	beta   []float64 // A⁻¹ K_nmᵀ y / σ²
	kty    []float64 // σ⁻² K_nmᵀ y, maintained incrementally between projections
	zEval  func(x []float64, from int, out []float64)
	zLanes laneEvaluator // the fused block form of zEval, when the kernel has one

	caches []*SparseScoringCache
	fitted bool
	gen    uint64 // posterior generation (see Model.Generation)
}

var _ Model = (*Sparse)(nil)

// NewSparse creates a sparse GP with at most m inducing points (minimum 4).
func NewSparse(k kernel.Kernel, cfg Config, m int) *Sparse {
	if m < 4 {
		m = 4
	}
	cfg.setDefaults()
	return &Sparse{kern: k.Clone(), cfg: cfg, m: m, logNoise: math.Log(cfg.Noise)}
}

// NumInducing reports the current inducing-set size.
func (s *Sparse) NumInducing() int {
	if s.z == nil {
		return 0
	}
	return s.z.Rows()
}

// NumTrain reports the number of absorbed training samples.
func (s *Sparse) NumTrain() int {
	if s.x == nil {
		return 0
	}
	return s.x.Rows()
}

// Fit implements Model.
func (s *Sparse) Fit(x *mat.Dense, y []float64) error {
	if x == nil || x.Rows() == 0 {
		return ErrNoData
	}
	if x.Rows() != len(y) {
		return fmt.Errorf("gp: sparse fit with %d rows and %d targets", x.Rows(), len(y))
	}
	s.x = x.Clone()
	s.yMean = 0
	if s.cfg.NormalizeY {
		s.yMean = mat.SumVec(y) / float64(len(y))
	}
	s.y = make([]float64, len(y))
	for i, v := range y {
		s.y[i] = v - s.yMean
	}
	s.z = greedyInducing(s.x, s.m)
	if !s.cfg.NoOptimize && len(y) >= 2 {
		if err := s.refitHyper(); err != nil {
			return err
		}
	}
	return s.project()
}

// greedyInducing picks up to m rows by farthest-point (max-min distance)
// selection, a standard space-filling inducing-set heuristic.
func greedyInducing(x *mat.Dense, m int) *mat.Dense {
	n := x.Rows()
	if m > n {
		m = n
	}
	chosen := make([]int, 0, m)
	chosen = append(chosen, 0)
	minDist := make([]float64, n)
	for i := 0; i < n; i++ {
		minDist[i] = mat.SqDist(x.Row(i), x.Row(0))
	}
	for len(chosen) < m {
		best, bestIdx := -1.0, -1
		for i := 0; i < n; i++ {
			if minDist[i] > best {
				best, bestIdx = minDist[i], i
			}
		}
		if bestIdx < 0 || best == 0 {
			break // all remaining points duplicate the chosen set
		}
		chosen = append(chosen, bestIdx)
		for i := 0; i < n; i++ {
			if d := mat.SqDist(x.Row(i), x.Row(bestIdx)); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	z := mat.NewDense(len(chosen), x.Cols(), nil)
	for r, i := range chosen {
		copy(z.Row(r), x.Row(i))
	}
	return z
}

// refitHyper optimizes hyperparameters with an exact GP on the inducing
// subset (targets of the rows nearest to each inducing point).
func (s *Sparse) refitHyper() error {
	// Gather the targets of the training rows the inducing points were
	// copied from: nearest-row lookup.
	zy := make([]float64, s.z.Rows())
	for i := 0; i < s.z.Rows(); i++ {
		bestD, bestJ := math.Inf(1), 0
		for j := 0; j < s.x.Rows(); j++ {
			if d := mat.SqDist(s.z.Row(i), s.x.Row(j)); d < bestD {
				bestD, bestJ = d, j
			}
		}
		zy[i] = s.y[bestJ]
	}
	sub := New(s.kern, Config{
		Noise:      math.Exp(s.logNoise),
		FixedNoise: s.cfg.FixedNoise,
		Seed:       s.cfg.Seed,
		MaxIter:    s.cfg.MaxIter,
		NormalizeY: false, // already centred
	})
	// Through Config a zero means the default number of restarts; the
	// setter keeps a SetRestarts(0) (warm start only) in force.
	sub.SetRestarts(s.cfg.Restarts)
	if err := sub.Fit(s.z, zy); err != nil {
		return err
	}
	h := sub.Hyperparams()
	s.kern.SetParams(h[:len(h)-1])
	s.logNoise = h[len(h)-1]
	return nil
}

// project rebuilds A and β from the full training set and invalidates every
// attached scoring cache (the factor, and possibly Z and the
// hyperparameters, changed wholesale).
func (s *Sparse) project() error {
	m := s.z.Rows()
	noise2 := math.Exp(2 * s.logNoise)
	kmm := kernel.Gram(s.kern, s.z)
	knm := kernel.Cross(s.kern, s.x, s.z)

	// A = K_mm + σ⁻² K_nmᵀ K_nm (+ jitter).
	a := mat.Mul(knm.T(), knm)
	a.Scale(1 / noise2)
	aFull := mat.NewDense(m, m, nil)
	aFull.Add(a, kmm)
	aFull.Symmetrize()
	ch, err := mat.NewCholeskyJitter(aFull, 1e-8, 1e-2)
	if err != nil {
		return fmt.Errorf("gp: sparse projection failed: %w", err)
	}
	s.aChol = ch

	// β = σ⁻² A⁻¹ K_nmᵀ y.
	s.kty = knm.MulVecT(s.y)
	mat.ScaleVec(1/noise2, s.kty)
	s.beta = ch.SolveVec(s.kty)
	ev := kernel.NewRowEval(s.kern, s.z)
	s.zEval = ev.Eval
	s.zLanes, _ = ev.(laneEvaluator)
	s.fitted = true
	s.gen++
	for _, c := range s.caches {
		c.invalidate()
	}
	return nil
}

// Predict implements Model.
//
// The per-point arithmetic — k_m through zEval, mean as one Dot against β,
// variance as ‖L⁻¹k_m‖² through the serial forward half-solve (the
// backward sweep cancels in the quadratic form, so it is never computed) —
// is exactly the SparseScoringCache rebuild path, so a freshly rebuilt
// cache and Predict agree bitwise.
func (s *Sparse) Predict(xs *mat.Dense) (mean, std []float64) {
	if !s.fitted {
		panic("gp: Sparse.Predict before Fit")
	}
	n := xs.Rows()
	mean = make([]float64, n)
	std = make([]float64, n)
	m := s.z.Rows()
	// Test points are independent: fan out over the pool in whole blocks
	// of eight rows, so that only the last chunk has a per-row remainder.
	mat.ParallelFor((n+7)/8, mat.ChunkFor(8*(m*m+4*m)), func(lo, hi int) {
		s.predictRange(xs, mean, std, 8*lo, min(8*hi, n))
	})
	return mean, std
}

// laneEvaluator is a kernel row evaluator's fused form for a block of eight
// candidates (the isotropic RBF's): it sets w[8j+c] = k(xs.Row(lo+c), z_j)
// for every inducing point j and returns each candidate's mat.Dot with
// beta, with the bits the per-row Eval and mat.Dot give.
type laneEvaluator interface {
	EvalLanes(xs *mat.Dense, lo int, w, xt, beta []float64) [8]float64
}

// predictScratch recycles predictRange's buffers (one kernel row, a
// block's eight interleaved solve vectors, its transposed candidates)
// across calls: the streamed pool predicts each shard through its own call.
var predictScratch = sync.Pool{New: func() any { return new([]float64) }}

// predictRange scores rows [lo, hi) with one set of scratch buffers for
// the whole range. Prediction reads model state only (zEval is
// concurrent-safe, the factor solves write the pooled scratch), so
// concurrent predictRange calls on one fitted model are race-free.
//
// Where the lane kernels run (mat.HaveLanes), rows go in blocks of eight:
// their kernel rows fill w candidate-major (w[8j+c] = k_m[j] of row c),
// with μ summed alongside by the RBF kernel's fused form (laneEvaluator)
// or per row for the other kernels, and one ForwardSolveLanes call solves
// the block and returns each row's Σw². Every lane replays the per-row
// arithmetic, so a row's μ and σ do not depend on its block or position;
// the streamed pool's compaction relies on that. The remaining rows, and
// every row without the lane kernels, take the per-row path: the scalar
// reference.
func (s *Sparse) predictRange(xs *mat.Dense, mean, std []float64, lo, hi int) {
	m, d := s.z.Rows(), xs.Cols()
	buf := predictScratch.Get().(*[]float64)
	defer predictScratch.Put(buf)
	if need := 9*m + 8*d; cap(*buf) < need {
		*buf = make([]float64, need)
	}
	km, w, xt := (*buf)[:m], (*buf)[m:9*m], (*buf)[9*m:9*m+8*d]
	i := lo
	for ; mat.HaveLanes() && i+8 <= hi; i += 8 {
		var mu [8]float64
		if s.zLanes != nil {
			mu = s.zLanes.EvalLanes(xs, i, w, xt, s.beta)
		} else {
			for c := range mu {
				s.zEval(xs.Row(i+c), 0, km)
				mu[c] = mat.Dot(km, s.beta)
				for j, v := range km {
					w[8*j+c] = v
				}
			}
		}
		ss := s.aChol.ForwardSolveLanes(w)
		for c, v := range ss {
			mean[i+c] = mu[c] + s.yMean
			std[i+c] = math.Sqrt(max0(v))
		}
	}
	for ; i < hi; i++ {
		s.zEval(xs.Row(i), 0, km)
		mean[i] = mat.Dot(km, s.beta) + s.yMean
		s.aChol.ForwardSolveVecTo(w[:m], km)
		std[i] = math.Sqrt(max0(mat.Dot(w[:m], w[:m])))
	}
}

// max0 clamps a negative variance to zero; NaN passes through.
func max0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// PredictInto implements Model: Predict into caller-owned buffers, on the
// calling goroutine — bitwise-equal output (same per-candidate
// arithmetic), no worker-pool dispatch, and no allocation: the streamed
// pool calls it once per shard.
func (s *Sparse) PredictInto(xs *mat.Dense, mean, std []float64) {
	if !s.fitted {
		panic("gp: Sparse.PredictInto before Fit")
	}
	n := xs.Rows()
	if len(mean) != n || len(std) != n {
		panic(fmt.Sprintf("gp: PredictInto buffers %d/%d for %d rows", len(mean), len(std), n))
	}
	s.predictRange(xs, mean, std, 0, n)
}

// Append implements Model: one observation adds the rank-1 term
// σ⁻² k_m k_mᵀ to A and σ⁻² y·k_m to the projected targets, so the factor
// absorbs it with an O(m²) cholupdate — no O(n·m²) re-projection. Attached
// caches are updated first (they need one solve against the pre-update
// factor for their Sherman-Morrison step).
func (s *Sparse) Append(x []float64, y float64) error {
	if !s.fitted {
		return errors.New("gp: Sparse.Append before Fit")
	}
	if len(x) != s.x.Cols() {
		return fmt.Errorf("gp: sparse append dim %d, want %d", len(x), s.x.Cols())
	}
	m := s.z.Rows()
	noise := math.Exp(s.logNoise)
	km := make([]float64, m)
	s.zEval(x, 0, km)
	u := make([]float64, m)
	for i, v := range km {
		u[i] = v / noise
	}
	if len(s.caches) > 0 {
		// A_new⁻¹ = A⁻¹ − z zᵀ/denom with z = A⁻¹u, denom = 1 + uᵀz.
		z := s.aChol.SolveVec(u)
		denom := 1 + mat.Dot(u, z)
		for _, c := range s.caches {
			c.extendAppend(z, denom)
		}
	}
	s.aChol.Rank1Update(u) // consumes u
	yc := y - s.yMean
	for i, v := range km {
		s.kty[i] += v * yc / (noise * noise)
	}
	s.beta = s.aChol.SolveVec(s.kty)
	s.x = s.x.AppendRow(x)
	s.y = append(s.y, yc)
	return nil
}

// Refit implements Model: re-selects inducing points, re-optimizes
// hyperparameters, and re-projects.
func (s *Sparse) Refit() error {
	if s.x == nil {
		return ErrNoData
	}
	s.z = greedyInducing(s.x, s.m)
	if !s.cfg.NoOptimize && len(s.y) >= 2 {
		if err := s.refitHyper(); err != nil {
			return err
		}
	}
	return s.project()
}

// Generation implements Model: it advances on every projection (Fit,
// Refit), never on the rank-1 Append.
func (s *Sparse) Generation() uint64 { return s.gen }

// Hyperparams implements Model.
func (s *Sparse) Hyperparams() []float64 {
	return append(s.kern.Params(), s.logNoise)
}

// SetRestarts implements Model.
func (s *Sparse) SetRestarts(n int) {
	if n < 0 {
		n = 0
	}
	s.cfg.Restarts = n
}
