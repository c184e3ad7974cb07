package gp

import (
	"errors"
	"fmt"
	"math"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// MultiFidConfig describes the fidelity structure of a MultiFid surrogate:
// which input column carries the fidelity dial and which dial values form
// the ladder. Inputs are full feature rows; the surrogate derives each
// sample's level from the dial column and strips that column before it
// reaches the per-level GPs (within one level the dial is constant and
// carries no information).
type MultiFidConfig struct {
	// Dim is the index of the fidelity column in the input features.
	Dim int
	// Ladder holds the dial values, ascending in fidelity; the slice index
	// is the level (0 = cheapest, len-1 = top fidelity).
	Ladder []float64
	// Rho optionally freezes the inter-level scales instead of estimating
	// them: Rho[l] links level l to level l−1 (Rho[0] is ignored). Nil
	// estimates each ρ_l by least squares at every fit.
	Rho []float64
	// Tol is the dial-matching tolerance (default 1e-9).
	Tol float64
}

// MultiFid is an autoregressive co-kriging surrogate over a fidelity ladder
// (Kennedy & O'Hagan's recursive formulation): level 0 is an ordinary GP on
// the cheapest observations, and every higher level models the discrepancy
// from a scaled version of the level below,
//
//	f_l(x) = ρ_l·f_{l−1}(x) + δ_l(x),   δ_l ~ GP(0, k),
//
// so the posterior at level l combines recursively as
//
//	μ_l = ρ_l·μ_{l−1} + μ_δl,   σ_l² = ρ_l²·σ_{l−1}² + σ_δl².
//
// Each δ_l is an independent exact GP (own hyperparameters, own incremental
// Cholesky), which keeps every ScoringCache/Append/Refit property of the
// single-fidelity engine intact per level. The scale ρ_l is re-estimated by
// least squares against the lower-level posterior mean at every Fit/Refit;
// Append computes the new sample's residual against the lower levels'
// current state (exact again at the next Refit, which rebuilds residuals
// from the raw observations it stores).
//
// A MultiFid with a one-rung ladder is exactly the base GP on the stripped
// features — the degenerate case the single-fidelity equivalence tests pin.
//
// Determinism: levels fit and predict in ladder order with index-ordered
// accumulations, and each per-level GP is seeded from cfg.Seed offset by
// its level, so identical observation sequences rebuild identical state —
// the property checkpoint resume relies on.
type MultiFid struct {
	proto kernel.Kernel
	cfg   Config
	mf    MultiFidConfig

	// Raw per-level observations (stripped point features, uncentred
	// targets). δ-GP training targets are residuals derived from these;
	// keeping the raw values lets Refit rebuild every residual exactly.
	xs [][][]float64
	ys [][]float64

	levels []*GP     // per-level δ-GPs; nil while a level has no data
	rho    []float64 // rho[l] links level l to l−1; rho[0] unused

	restarts    int
	restartsSet bool
	fitted      bool
	gen         uint64 // posterior generation (see Model.Generation)
}

var _ Model = (*MultiFid)(nil)

// NewMultiFid creates a multi-fidelity surrogate with the given kernel
// prototype (cloned per level), per-level GP configuration, and fidelity
// structure. The ladder must hold at least one strictly ascending dial
// value; a fixed Rho, when given, must have one entry per level.
func NewMultiFid(k kernel.Kernel, cfg Config, mf MultiFidConfig) (*MultiFid, error) {
	if len(mf.Ladder) == 0 {
		return nil, errors.New("gp: multifid ladder is empty")
	}
	for l := 1; l < len(mf.Ladder); l++ {
		if mf.Ladder[l] <= mf.Ladder[l-1] {
			return nil, fmt.Errorf("gp: multifid ladder must be strictly ascending, got %v", mf.Ladder)
		}
	}
	if mf.Rho != nil && len(mf.Rho) != len(mf.Ladder) {
		return nil, fmt.Errorf("gp: multifid fixed rho has %d entries for %d levels", len(mf.Rho), len(mf.Ladder))
	}
	if mf.Dim < 0 {
		return nil, fmt.Errorf("gp: multifid fidelity column %d", mf.Dim)
	}
	if mf.Tol <= 0 {
		mf.Tol = 1e-9
	}
	return &MultiFid{proto: k.Clone(), cfg: cfg, mf: mf}, nil
}

// NumLevels reports the ladder length.
func (m *MultiFid) NumLevels() int { return len(m.mf.Ladder) }

// Rho returns a copy of the current inter-level scales (index l links level
// l to l−1; index 0 is unused and always zero).
func (m *MultiFid) Rho() []float64 { return append([]float64(nil), m.rho...) }

// Level derives the ladder level of a full feature row from its fidelity
// column, or an error when the dial value is off the ladder.
func (m *MultiFid) Level(x []float64) (int, error) {
	if m.mf.Dim >= len(x) {
		return 0, fmt.Errorf("gp: multifid fidelity column %d out of range for %d features", m.mf.Dim, len(x))
	}
	v := x[m.mf.Dim]
	for l, dial := range m.mf.Ladder {
		if math.Abs(v-dial) <= m.mf.Tol {
			return l, nil
		}
	}
	return 0, fmt.Errorf("gp: fidelity dial %v is not on the ladder %v", v, m.mf.Ladder)
}

// strip copies a full feature row without the fidelity column.
func (m *MultiFid) strip(x []float64) []float64 {
	out := make([]float64, 0, len(x)-1)
	out = append(out, x[:m.mf.Dim]...)
	return append(out, x[m.mf.Dim+1:]...)
}

// stripInto is strip writing into a caller-owned buffer of length len(x)−1.
func (m *MultiFid) stripInto(dst, x []float64) {
	copy(dst[:m.mf.Dim], x[:m.mf.Dim])
	copy(dst[m.mf.Dim:], x[m.mf.Dim+1:])
}

// Fit buckets the samples by ladder level and fits the per-level δ-GPs in
// ladder order. The base level must hold at least one observation; higher
// levels may start empty (their δ-GP appears at the first Append).
func (m *MultiFid) Fit(x *mat.Dense, y []float64) error {
	if x == nil || x.Rows() == 0 {
		return ErrNoData
	}
	if x.Rows() != len(y) {
		return fmt.Errorf("gp: x has %d rows but y has %d values", x.Rows(), len(y))
	}
	L := len(m.mf.Ladder)
	xs := make([][][]float64, L)
	ys := make([][]float64, L)
	for i := 0; i < x.Rows(); i++ {
		row := x.Row(i)
		l, err := m.Level(row)
		if err != nil {
			return err
		}
		xs[l] = append(xs[l], m.strip(row))
		ys[l] = append(ys[l], y[i])
	}
	if len(ys[0]) == 0 {
		return errors.New("gp: multifid needs at least one observation at the base fidelity level")
	}
	m.xs, m.ys = xs, ys
	m.levels = make([]*GP, L)
	m.rho = make([]float64, L)
	for l := 0; l < L; l++ {
		if err := m.fitLevel(l); err != nil {
			return err
		}
	}
	m.fitted = true
	m.gen++
	return nil
}

// fitLevel (re)derives level l's scale and residuals from the raw stored
// observations and fits its δ-GP, reusing the existing GP object when one
// exists so attached scoring caches stay registered across Refit.
func (m *MultiFid) fitLevel(l int) error {
	if len(m.ys[l]) == 0 {
		m.levels[l] = nil
		m.rho[l] = m.defaultRho(l)
		return nil
	}
	resid := make([]float64, len(m.ys[l]))
	if l == 0 {
		m.rho[0] = 0
		copy(resid, m.ys[0])
	} else {
		below := make([]float64, len(m.ys[l]))
		for i, p := range m.xs[l] {
			below[i], _ = m.predictPoint(l-1, p)
		}
		m.rho[l] = m.estimateRho(l, below, m.ys[l])
		for i := range resid {
			resid[i] = m.ys[l][i] - m.rho[l]*below[i]
		}
	}
	g := m.levels[l]
	if g == nil {
		g = New(m.proto, m.levelConfig(l))
		if m.restartsSet {
			g.SetRestarts(m.restarts)
		}
		m.levels[l] = g
	}
	return g.Fit(rowsDense(m.xs[l]), resid)
}

// levelConfig is the per-level GP configuration: the shared config with the
// restart seed offset by the level, so sibling δ-GPs do not draw identical
// random restarts. Level 0 keeps the seed untouched — a one-rung ladder is
// bitwise the plain GP.
func (m *MultiFid) levelConfig(l int) Config {
	cfg := m.cfg
	cfg.Seed += int64(l)
	return cfg
}

// estimateRho returns the scale linking level l to the one below: the fixed
// value when configured, otherwise the least-squares fit of y against the
// lower-level posterior mean, ρ = ⟨μ_below, y⟩/⟨μ_below, μ_below⟩, with a
// degenerate (near-zero) denominator collapsing to ρ = 0.
func (m *MultiFid) estimateRho(l int, below, y []float64) float64 {
	if m.mf.Rho != nil {
		return m.mf.Rho[l]
	}
	var num, den float64
	for i := range below {
		num += below[i] * y[i]
		den += below[i] * below[i]
	}
	if den <= 1e-12 {
		return 0
	}
	return num / den
}

// defaultRho is the scale assigned to a level with no observations yet:
// the fixed value when configured, otherwise 1 (pass the lower level
// through unscaled until data arrives to estimate better).
func (m *MultiFid) defaultRho(l int) float64 {
	if m.mf.Rho != nil {
		return m.mf.Rho[l]
	}
	return 1
}

// Append adds one observation: the sample's level is derived from its
// fidelity column, its residual is computed against the lower levels'
// current posterior (frozen ρ — the stale-residual approximation Refit
// later makes exact), and it rides the level δ-GP's incremental Append.
// The first observation at a previously-empty level fits that level's
// δ-GP from scratch instead.
func (m *MultiFid) Append(x []float64, y float64) error {
	if !m.fitted {
		return errors.New("gp: Append before Fit")
	}
	l, err := m.Level(x)
	if err != nil {
		return err
	}
	p := m.strip(x)
	m.xs[l] = append(m.xs[l], p)
	m.ys[l] = append(m.ys[l], y)
	if m.levels[l] == nil {
		// The level's prior σ gives way to a freshly fitted δ-GP, whose
		// hyperparameters may raise σ where the prior was tighter.
		m.gen++
		return m.fitLevel(l)
	}
	resid := y
	if l > 0 {
		below, _ := m.predictPoint(l-1, p)
		resid = y - m.rho[l]*below
	}
	return m.levels[l].Append(p, resid)
}

// Refit rebuilds every level from the raw stored observations — scales,
// residuals, hyperparameters (warm-started per level), posterior — in
// ladder order, making the stale residuals accumulated by Append exact
// again. Existing level GPs are reused, so attached caches survive.
func (m *MultiFid) Refit() error {
	if !m.fitted {
		return ErrNoData
	}
	m.gen++
	for l := range m.levels {
		if err := m.fitLevel(l); err != nil {
			return err
		}
	}
	return nil
}

// Generation implements Model: it advances on Fit, Refit, and the first
// observation at a previously empty level.
func (m *MultiFid) Generation() uint64 { return m.gen }

// predictPoint evaluates the recursive posterior at a stripped point up to
// the given level. Levels without data contribute zero mean and the kernel
// prototype's prior standard deviation.
func (m *MultiFid) predictPoint(level int, p []float64) (mean, std float64) {
	var mu, variance float64
	for l := 0; l <= level; l++ {
		var md, sd float64
		if g := m.levels[l]; g != nil {
			md, sd = g.PredictOne(p)
		} else {
			md, sd = 0, m.priorStd(p)
		}
		if l == 0 {
			mu, variance = md, sd*sd
		} else {
			r := m.rho[l]
			mu = r*mu + md
			variance = r*r*variance + sd*sd
		}
	}
	return mu, math.Sqrt(variance)
}

// priorStd is the prior standard deviation the recursion charges for a
// level that has no observations yet, from the unfitted kernel prototype.
func (m *MultiFid) priorStd(p []float64) float64 {
	v := m.proto.Eval(p, p)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Predict returns the recursive posterior mean and standard deviation at
// each row of xs, each row evaluated at its own fidelity level. Rows are
// independent and evaluate in parallel.
func (m *MultiFid) Predict(xs *mat.Dense) (mean, std []float64) {
	mm := xs.Rows()
	mean = make([]float64, mm)
	std = make([]float64, mm)
	m.PredictInto(xs, mean, std)
	return mean, std
}

// PredictInto is Predict writing into caller-owned buffers.
func (m *MultiFid) PredictInto(xs *mat.Dense, mean, std []float64) {
	if !m.fitted {
		panic("gp: Predict before Fit")
	}
	mm := xs.Rows()
	if len(mean) != mm || len(std) != mm {
		panic(fmt.Sprintf("gp: PredictInto buffers %d/%d for %d rows", len(mean), len(std), mm))
	}
	n := m.maxTrain()
	mat.ParallelFor(mm, mat.ChunkFor(len(m.mf.Ladder)*(n*n/2+32*n)+8), func(lo, hi int) {
		m.predictRange(xs, mean, std, lo, hi)
	})
}

// PredictIntoSerial is PredictInto pinned to the calling goroutine,
// bitwise-equal output, for callers that are themselves one lane of a
// higher-level dispatch.
func (m *MultiFid) PredictIntoSerial(xs *mat.Dense, mean, std []float64) {
	if !m.fitted {
		panic("gp: Predict before Fit")
	}
	mm := xs.Rows()
	if len(mean) != mm || len(std) != mm {
		panic(fmt.Sprintf("gp: PredictIntoSerial buffers %d/%d for %d rows", len(mean), len(std), mm))
	}
	m.predictRange(xs, mean, std, 0, mm)
}

func (m *MultiFid) predictRange(xs *mat.Dense, mean, std []float64, lo, hi int) {
	p := make([]float64, xs.Cols()-1)
	for i := lo; i < hi; i++ {
		row := xs.Row(i)
		l, err := m.Level(row)
		if err != nil {
			panic(err)
		}
		m.stripInto(p, row)
		mean[i], std[i] = m.predictPoint(l, p)
	}
}

// TopInfoGains returns, for each row of xs, the predicted reduction in
// top-fidelity variance from observing that candidate at its own level:
// w_l²·σ_δl²(x) with w_l = Π_{j>l} ρ_j — the numerator of the
// cost-per-information acquisition. Rows off the ladder panic (callers
// filter pools to the ladder first).
func (m *MultiFid) TopInfoGains(xs *mat.Dense) []float64 {
	if !m.fitted {
		panic("gp: TopInfoGains before Fit")
	}
	gains := make([]float64, xs.Rows())
	p := make([]float64, xs.Cols()-1)
	for i := range gains {
		row := xs.Row(i)
		l, err := m.Level(row)
		if err != nil {
			panic(err)
		}
		m.stripInto(p, row)
		var sd float64
		if g := m.levels[l]; g != nil {
			_, sd = g.PredictOne(p)
		} else {
			sd = m.priorStd(p)
		}
		gains[i] = m.topWeight(l) * sd * sd
	}
	return gains
}

// topWeight is w_l² = (Π_{j>l} ρ_j)², the factor by which level-l δ
// variance propagates into the top-fidelity posterior.
func (m *MultiFid) topWeight(l int) float64 {
	w := 1.0
	for j := l + 1; j < len(m.mf.Ladder); j++ {
		w *= m.rho[j]
	}
	return w * w
}

// Hyperparams concatenates the inter-level scales ρ_1..ρ_{L−1} with each
// fitted level's hyperparameter vector in ladder order. A one-rung ladder
// therefore reports exactly the base GP's vector.
func (m *MultiFid) Hyperparams() []float64 {
	h := append([]float64(nil), m.rho[1:]...)
	for _, g := range m.levels {
		if g != nil {
			h = append(h, g.Hyperparams()...)
		}
	}
	return h
}

// SetRestarts forwards to every level GP, present and future.
func (m *MultiFid) SetRestarts(n int) {
	m.restarts = n
	m.restartsSet = true
	for _, g := range m.levels {
		if g != nil {
			g.SetRestarts(n)
		}
	}
}

// maxTrain is the largest per-level training-set size, the cost driver of
// one recursive prediction.
func (m *MultiFid) maxTrain() int {
	n := 1
	for _, g := range m.levels {
		if g != nil && g.NumTrain() > n {
			n = g.NumTrain()
		}
	}
	return n
}

// rowsDense packs row slices into a fresh Dense matrix.
func rowsDense(rows [][]float64) *mat.Dense {
	d := mat.NewDense(len(rows), len(rows[0]), nil)
	for i, r := range rows {
		copy(d.Row(i), r)
	}
	return d
}
