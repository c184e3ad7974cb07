package gp

import (
	"errors"
	"fmt"
	"math"

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

	z     *mat.Dense // inducing inputs
	aChol *mat.Cholesky
	beta  []float64 // A⁻¹ K_nmᵀ y / σ²
	kty   []float64 // σ⁻² K_nmᵀ y, maintained incrementally between projections
	zEval func(x []float64, from int, out []float64)

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
		Restarts:   s.cfg.Restarts,
		Seed:       s.cfg.Seed,
		MaxIter:    s.cfg.MaxIter,
		NormalizeY: false, // already centred
	})
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
	s.zEval = kernel.RowEvaluator(s.kern, s.z)
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
	s.PredictInto(xs, mean, std)
	return mean, std
}

// PredictInto is Predict writing into caller-owned buffers, the
// allocation-free form the streamed pool uses per shard. mean and std must
// have xs.Rows() entries.
func (s *Sparse) PredictInto(xs *mat.Dense, mean, std []float64) {
	if !s.fitted {
		panic("gp: Sparse.PredictInto before Fit")
	}
	n := xs.Rows()
	if len(mean) != n || len(std) != n {
		panic(fmt.Sprintf("gp: PredictInto buffers %d/%d for %d rows", len(mean), len(std), n))
	}
	m := s.z.Rows()
	// Test points are independent: batch kernel rows via the cached
	// evaluator and fan out over the pool with per-chunk scratch.
	mat.ParallelFor(n, mat.ChunkFor(m*m+4*m), func(lo, hi int) {
		s.predictRange(xs, mean, std, lo, hi)
	})
}

// predictRange scores rows [lo, hi) with one scratch pair for the whole
// range. Prediction reads model state only (zEval is concurrent-safe, the
// factor solve writes caller scratch), so concurrent predictRange calls on
// one fitted model are race-free.
func (s *Sparse) predictRange(xs *mat.Dense, mean, std []float64, lo, hi int) {
	m := s.z.Rows()
	km := make([]float64, m)
	w := make([]float64, m)
	for i := lo; i < hi; i++ {
		s.zEval(xs.Row(i), 0, km)
		mean[i] = mat.Dot(km, s.beta) + s.yMean
		s.aChol.ForwardSolveVecToSerial(w, km)
		v := mat.Dot(w, w)
		if v < 0 {
			v = 0
		}
		std[i] = math.Sqrt(v)
	}
}

// PredictIntoSerial is PredictInto pinned to the calling goroutine —
// bitwise-equal output (same per-candidate arithmetic), no worker-pool
// dispatch. See GP.PredictIntoSerial for the use case and the concurrency
// contract.
func (s *Sparse) PredictIntoSerial(xs *mat.Dense, mean, std []float64) {
	if !s.fitted {
		panic("gp: Sparse.PredictInto before Fit")
	}
	n := xs.Rows()
	if len(mean) != n || len(std) != n {
		panic(fmt.Sprintf("gp: PredictIntoSerial buffers %d/%d for %d rows", len(mean), len(std), n))
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
