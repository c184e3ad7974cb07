package kernel

import (
	"math"

	"alamr/internal/mat"
)

// RowEval is the stateful form of the batch kernel-row fast path: it
// evaluates full rows of k(x, ·) against a design matrix and can grow with
// that matrix one row at a time, the shape of the active-learning loop
// (`gp.Append`). Compared with rebuilding a RowEvaluator per append — which
// recomputes every precomputed squared norm, O(n·d) wasted work per
// iteration — Extend is O(d).
//
// Eval is safe for concurrent use. Extend mutates the evaluator and must
// not race with Eval; the GP serializes them (Append and Predict never
// overlap on one model). An evaluator must be rebuilt from scratch whenever
// the kernel's hyperparameters change — Extend only tracks data growth.
type RowEval interface {
	// Eval fills out[t] = k(x, xs.Row(from+t)) for t in [0, len(out)).
	Eval(x []float64, from int, out []float64)
	// Extend absorbs the last row of xs, which must be the evaluator's
	// design matrix grown by exactly one row (mat.Dense.AppendRow
	// semantics: earlier rows are unchanged). The appended row's derived
	// state (squared norm, scaled copy) is computed with the same scalar
	// kernels a fresh evaluator uses, so an extended evaluator and a
	// rebuilt one agree bitwise.
	Extend(xs *mat.Dense)
}

// NewRowEval builds the evaluator for k over xs. The RBF, ARD-RBF and
// Matérn kernels get specialized implementations with hoisted
// hyperparameter transforms and precomputed row norms; other kernels fall
// back to per-pair Eval.
func NewRowEval(k Kernel, xs *mat.Dense) RowEval {
	switch kk := k.(type) {
	case *RBF:
		l := math.Exp(kk.logLen)
		return &rbfRowEval{
			xs:     xs,
			cols:   columns(xs),
			norms:  rowSqNorms(xs),
			inv2l2: 1 / (2 * l * l),
			amp2:   math.Exp(2 * kk.logAmp),
			diag:   kk.Eval(nil, nil),
		}
	case *ARDRBF:
		z, zn, invL := kk.scaledRows(xs)
		return &ardRowEval{z: z, zn: zn, invL: invL, amp2: math.Exp(2 * kk.logAmp)}
	case *Matern:
		l := math.Exp(kk.logLen)
		c1 := math.Sqrt(3) / l
		half := kk.nu == 1.5
		if !half {
			c1 = math.Sqrt(5) / l
		}
		return &maternRowEval{
			xs:    xs,
			norms: rowSqNorms(xs),
			c1:    c1,
			amp2:  math.Exp(2 * kk.logAmp),
			half:  half,
		}
	default:
		return &genericRowEval{k: k, xs: xs}
	}
}

// rbfRowEval is the isotropic squared-exponential fast path: one
// exponential plus a d-length dot per pair, via |x−y|² = |x|²+|y|²−2x·y.
// cols is a column-major copy of xs (cols[i][j] = xs[j][i]) for the fused
// four-row kernel, mat.RBFRows, which replays the scalar expression here
// bit for bit; the rows it leaves (the len mod 4 tail, groups whose
// exponent needs math.Exp's special paths, every row on CPUs without the
// vector kernels) take that scalar expression. EvalLanes runs the same
// expression candidate-major over the row-major xs, and EvalColumn runs it
// down one design row's column of a candidate pool.
type rbfRowEval struct {
	xs     *mat.Dense
	cols   [][]float64
	norms  []float64
	inv2l2 float64
	amp2   float64
	diag   float64 // k(x, x) for every row x with finite features
}

func (e *rbfRowEval) Eval(x []float64, from int, out []float64) {
	nx := sqNorm(x)
	for t := 0; t < len(out); {
		t += mat.RBFRows(out[t:], x, e.cols, from+t, e.norms, nx, e.inv2l2, e.amp2)
		for end := min(t+4, len(out)); t < end; t++ {
			out[t] = e.amp2 * math.Exp(-sqDistVia(nx, e.norms[from+t], x, e.xs.Row(from+t))*e.inv2l2)
		}
	}
}

// EvalLanes is Eval for the block of eight candidates xs.Row(lo..lo+7)
// against the whole design, candidate-major: it sets w[8j+c] = k(x_c, z_j),
// the stride-8 layout mat.Cholesky.ForwardSolveStrided solves, and returns
// mu[c] = mat.Dot of candidate c's kernel row with beta. xt is scratch of
// 8·xs.Cols() values. mat.RBFLanes replays Eval's scalar expression per
// lane, so every value has the bits Eval and mat.Dot give; a design row
// where some lane leaves the vector exponential's range takes that
// expression for all eight candidates, and so does every row on CPUs
// without the vector kernels.
func (e *rbfRowEval) EvalLanes(xs *mat.Dense, lo int, w, xt, beta []float64) (mu [8]float64) {
	d := xs.Cols()
	x := xs.RawData()[lo*d : (lo+8)*d]
	m := len(e.norms)
	for j := 0; j < m; j++ {
		if j = mat.RBFLanes(w, x, xt, e.xs.RawData(), e.norms, beta, j, e.inv2l2, e.amp2, &mu); j == m {
			break
		}
		zj := e.xs.Row(j)
		for c := range mu {
			xc := x[c*d : (c+1)*d]
			k := e.amp2 * math.Exp(-sqDistVia(sqNorm(xc), e.norms[j], xc, zj)*e.inv2l2)
			w[8*j+c] = k
			mu[c] += k * beta[j]
		}
	}
	return mu
}

// EvalColumn is Eval turned sideways: instead of one candidate against many
// design rows it evaluates many candidates against design row j, setting
// out[t] = k(x_s, z_j) for s = off+t, t in [0, len(out)). Candidate s has
// the features rows[s·d : (s+1)·d], the column-major copy cols[i][s] = x_s[i]
// and the squared norm norms[s] = SqNorm(x_s). Every value has the bits
// Eval(x_s, j, ·) gives: the fused row mat.RBFRows runs with z_j as its
// probe and the pool as its design, computing (‖z_j‖² + ‖x_s‖²) − 2⟨z_j, x_s⟩
// where Eval computes (‖x_s‖² + ‖z_j‖²) − 2⟨x_s, z_j⟩. The addition commutes,
// each product commutes and the dot runs in the same index order, and the
// fused row writes only groups whose exponent arguments lie in its finite
// fast range, so the two agree bit for bit. The candidates it leaves take
// Eval's own expression. The contract covers every non-NaN value; a NaN
// (from NaN features) is NaN on both paths, but its payload is unspecified,
// since it follows the compiler's operand order for the commutative SSE
// additions and products, which the two operand orders above leave free.
func (e *rbfRowEval) EvalColumn(out []float64, j int, rows []float64, cols [][]float64, norms []float64, off int) {
	z, nz := e.xs.Row(j), e.norms[j]
	d := len(z)
	for t := 0; t < len(out); {
		t += mat.RBFRows(out[t:], z, cols, off+t, norms, nz, e.inv2l2, e.amp2)
		for end := min(t+4, len(out)); t < end; t++ {
			s := off + t
			out[t] = e.amp2 * math.Exp(-sqDistVia(norms[s], nz, rows[s*d:(s+1)*d], z)*e.inv2l2)
		}
	}
}

// Diag returns k(x, x) for every row x whose features are all finite:
// SqDist(x, x) is +0 for such a row, so RBF.Eval(x, x) is one number,
// computed once when the evaluator is built. A row with a NaN or infinite
// feature needs RBF.Eval(x, x) itself.
func (e *rbfRowEval) Diag() float64 { return e.diag }

// Extend appends the new row to every column: amortized O(d), the design
// is never transposed again.
func (e *rbfRowEval) Extend(xs *mat.Dense) {
	e.xs = xs
	row := xs.Row(xs.Rows() - 1)
	e.norms = append(e.norms, sqNorm(row))
	for i, v := range row {
		e.cols[i] = append(e.cols[i], v)
	}
}

// ardRowEval pre-scales the design rows by the inverse length scales once,
// so each pair costs one exponential plus a dot over the scaled rows.
type ardRowEval struct {
	z    *mat.Dense
	zn   []float64
	invL []float64
	amp2 float64
}

func (e *ardRowEval) Eval(x []float64, from int, out []float64) {
	zx := scaleDims(x, e.invL)
	nx := sqNorm(zx)
	for t := range out {
		out[t] = e.amp2 * math.Exp(-0.5*sqDistVia(nx, e.zn[from+t], zx, e.z.Row(from+t)))
	}
}

func (e *ardRowEval) Extend(xs *mat.Dense) {
	zr := scaleDims(xs.Row(xs.Rows()-1), e.invL)
	e.z = e.z.AppendRow(zr)
	e.zn = append(e.zn, sqNorm(zr))
}

type maternRowEval struct {
	xs    *mat.Dense
	norms []float64
	c1    float64
	amp2  float64
	half  bool // ν = 3/2
}

func (e *maternRowEval) Eval(x []float64, from int, out []float64) {
	nx := sqNorm(x)
	for t := range out {
		a := e.c1 * math.Sqrt(sqDistVia(nx, e.norms[from+t], x, e.xs.Row(from+t)))
		if e.half {
			out[t] = e.amp2 * (1 + a) * math.Exp(-a)
		} else {
			out[t] = e.amp2 * (1 + a + a*a/3) * math.Exp(-a)
		}
	}
}

func (e *maternRowEval) Extend(xs *mat.Dense) {
	e.xs = xs
	e.norms = append(e.norms, sqNorm(xs.Row(xs.Rows()-1)))
}

// genericRowEval is the per-pair fallback for custom kernels; Extend only
// needs to re-point at the grown matrix.
type genericRowEval struct {
	k  Kernel
	xs *mat.Dense
}

func (e *genericRowEval) Eval(x []float64, from int, out []float64) {
	for t := range out {
		out[t] = e.k.Eval(x, e.xs.Row(from+t))
	}
}

func (e *genericRowEval) Extend(xs *mat.Dense) { e.xs = xs }
