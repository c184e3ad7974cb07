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
// vector kernels) take that scalar expression.
type rbfRowEval struct {
	xs     *mat.Dense
	cols   [][]float64
	norms  []float64
	inv2l2 float64
	amp2   float64
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
