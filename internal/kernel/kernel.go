// Package kernel implements the covariance functions used for Gaussian
// process regression: the isotropic squared exponential (RBF) of the paper,
// plus the anisotropic (ARD) RBF and the Matérn 3/2 and 5/2 family that the
// paper lists as future work.
//
// All hyperparameters live in log space, which makes positivity automatic
// and lets the optimizer work unconstrained. Gradients are with respect to
// the log-space parameters, the form needed by the marginal-likelihood
// ascent in package gp.
package kernel

import (
	"fmt"
	"math"

	"alamr/internal/mat"
)

// Kernel is a positive-semidefinite covariance function with tunable
// log-space hyperparameters.
type Kernel interface {
	// Eval returns k(x, y).
	Eval(x, y []float64) float64
	// EvalGrad returns k(x, y) and dk/dθ for each log-space parameter θ.
	// The gradient slice is owned by the caller.
	EvalGrad(x, y []float64) (float64, []float64)
	// NumParams reports the number of hyperparameters.
	NumParams() int
	// Params returns a copy of the log-space hyperparameters.
	Params() []float64
	// SetParams replaces the log-space hyperparameters.
	SetParams(p []float64)
	// Clone returns an independent copy.
	Clone() Kernel
	// String names the kernel and its current hyperparameters.
	String() string
}

// RBF is the isotropic squared-exponential kernel
//
//	k(x, y) = σ_f² exp(−|x−y|² / (2ℓ²))
//
// with log-space parameters (log ℓ, log σ_f). This is the kernel the paper
// uses throughout (eq. 7).
type RBF struct {
	logLen, logAmp float64
}

// NewRBF creates an RBF kernel with the given length scale and amplitude
// (standard deviation σ_f), both of which must be positive.
func NewRBF(lengthScale, amplitude float64) *RBF {
	if lengthScale <= 0 || amplitude <= 0 {
		panic(fmt.Sprintf("kernel: RBF needs positive hyperparameters, got ℓ=%g σ_f=%g", lengthScale, amplitude))
	}
	return &RBF{logLen: math.Log(lengthScale), logAmp: math.Log(amplitude)}
}

// Eval implements Kernel.
func (k *RBF) Eval(x, y []float64) float64 {
	l := math.Exp(k.logLen)
	amp2 := math.Exp(2 * k.logAmp)
	return amp2 * math.Exp(-mat.SqDist(x, y)/(2*l*l))
}

// EvalGrad implements Kernel. Derivatives:
//
//	dk/d(log ℓ)   = k · r²/ℓ²
//	dk/d(log σ_f) = 2k
func (k *RBF) EvalGrad(x, y []float64) (float64, []float64) {
	l := math.Exp(k.logLen)
	amp2 := math.Exp(2 * k.logAmp)
	r2 := mat.SqDist(x, y)
	v := amp2 * math.Exp(-r2/(2*l*l))
	return v, []float64{v * r2 / (l * l), 2 * v}
}

// NumParams implements Kernel.
func (k *RBF) NumParams() int { return 2 }

// Params implements Kernel.
func (k *RBF) Params() []float64 { return []float64{k.logLen, k.logAmp} }

// SetParams implements Kernel.
func (k *RBF) SetParams(p []float64) {
	if len(p) != 2 {
		panic(fmt.Sprintf("kernel: RBF.SetParams got %d params, want 2", len(p)))
	}
	k.logLen, k.logAmp = p[0], p[1]
}

// Clone implements Kernel.
func (k *RBF) Clone() Kernel { c := *k; return &c }

// LengthScale returns ℓ.
func (k *RBF) LengthScale() float64 { return math.Exp(k.logLen) }

// Amplitude returns σ_f.
func (k *RBF) Amplitude() float64 { return math.Exp(k.logAmp) }

// String implements Kernel.
func (k *RBF) String() string {
	return fmt.Sprintf("RBF(ℓ=%.4g, σ_f=%.4g)", k.LengthScale(), k.Amplitude())
}

// ARDRBF is the anisotropic squared-exponential kernel with one length
// scale per input dimension:
//
//	k(x, y) = σ_f² exp(−½ Σ_d (x_d−y_d)²/ℓ_d²)
type ARDRBF struct {
	logLens []float64
	logAmp  float64
}

// NewARDRBF creates an anisotropic RBF kernel with per-dimension length
// scales.
func NewARDRBF(lengthScales []float64, amplitude float64) *ARDRBF {
	if len(lengthScales) == 0 {
		panic("kernel: ARDRBF needs at least one length scale")
	}
	if amplitude <= 0 {
		panic("kernel: ARDRBF needs positive amplitude")
	}
	ll := make([]float64, len(lengthScales))
	for i, l := range lengthScales {
		if l <= 0 {
			panic(fmt.Sprintf("kernel: ARDRBF length scale %d is %g, must be positive", i, l))
		}
		ll[i] = math.Log(l)
	}
	return &ARDRBF{logLens: ll, logAmp: math.Log(amplitude)}
}

func (k *ARDRBF) scaledSq(x, y []float64) float64 {
	if len(x) != len(k.logLens) || len(y) != len(k.logLens) {
		panic(fmt.Sprintf("kernel: ARDRBF input dim %d/%d, want %d", len(x), len(y), len(k.logLens)))
	}
	var s float64
	for d := range x {
		l := math.Exp(k.logLens[d])
		r := (x[d] - y[d]) / l
		s += r * r
	}
	return s
}

// Eval implements Kernel.
func (k *ARDRBF) Eval(x, y []float64) float64 {
	return math.Exp(2*k.logAmp) * math.Exp(-0.5*k.scaledSq(x, y))
}

// EvalGrad implements Kernel.
func (k *ARDRBF) EvalGrad(x, y []float64) (float64, []float64) {
	v := k.Eval(x, y)
	g := make([]float64, len(k.logLens)+1)
	for d := range k.logLens {
		l := math.Exp(k.logLens[d])
		r := (x[d] - y[d]) / l
		g[d] = v * r * r
	}
	g[len(k.logLens)] = 2 * v
	return v, g
}

// NumParams implements Kernel.
func (k *ARDRBF) NumParams() int { return len(k.logLens) + 1 }

// Params implements Kernel.
func (k *ARDRBF) Params() []float64 {
	p := make([]float64, len(k.logLens)+1)
	copy(p, k.logLens)
	p[len(k.logLens)] = k.logAmp
	return p
}

// SetParams implements Kernel.
func (k *ARDRBF) SetParams(p []float64) {
	if len(p) != len(k.logLens)+1 {
		panic(fmt.Sprintf("kernel: ARDRBF.SetParams got %d params, want %d", len(p), len(k.logLens)+1))
	}
	copy(k.logLens, p[:len(k.logLens)])
	k.logAmp = p[len(k.logLens)]
}

// Clone implements Kernel.
func (k *ARDRBF) Clone() Kernel {
	c := &ARDRBF{logLens: mat.CopyVec(k.logLens), logAmp: k.logAmp}
	return c
}

// String implements Kernel.
func (k *ARDRBF) String() string {
	ls := make([]float64, len(k.logLens))
	for i, l := range k.logLens {
		ls[i] = math.Exp(l)
	}
	return fmt.Sprintf("ARDRBF(ℓ=%.4g, σ_f=%.4g)", ls, math.Exp(k.logAmp))
}

// Matern is the Matérn kernel with smoothness ν ∈ {3/2, 5/2}:
//
//	ν=3/2: k = σ_f² (1+a)       exp(−a),  a = √3 r/ℓ
//	ν=5/2: k = σ_f² (1+a+a²/3) exp(−a),  a = √5 r/ℓ
type Matern struct {
	nu             float64 // 1.5 or 2.5
	logLen, logAmp float64
}

// NewMatern creates a Matérn kernel. nu must be 1.5 or 2.5.
func NewMatern(nu, lengthScale, amplitude float64) *Matern {
	if nu != 1.5 && nu != 2.5 {
		panic(fmt.Sprintf("kernel: Matérn ν must be 1.5 or 2.5, got %g", nu))
	}
	if lengthScale <= 0 || amplitude <= 0 {
		panic("kernel: Matérn needs positive hyperparameters")
	}
	return &Matern{nu: nu, logLen: math.Log(lengthScale), logAmp: math.Log(amplitude)}
}

// Eval implements Kernel.
func (k *Matern) Eval(x, y []float64) float64 {
	v, _ := k.evalA(math.Sqrt(mat.SqDist(x, y)))
	return v
}

// evalA returns k and a (the scaled distance).
func (k *Matern) evalA(r float64) (float64, float64) {
	l := math.Exp(k.logLen)
	amp2 := math.Exp(2 * k.logAmp)
	var a float64
	if k.nu == 1.5 {
		a = math.Sqrt(3) * r / l
		return amp2 * (1 + a) * math.Exp(-a), a
	}
	a = math.Sqrt(5) * r / l
	return amp2 * (1 + a + a*a/3) * math.Exp(-a), a
}

// EvalGrad implements Kernel. With a ∝ 1/ℓ, da/d(log ℓ) = −a, giving
//
//	ν=3/2: dk/d(log ℓ) = σ_f² a²        exp(−a)
//	ν=5/2: dk/d(log ℓ) = σ_f² a²(1+a)/3 exp(−a)
func (k *Matern) EvalGrad(x, y []float64) (float64, []float64) {
	r := math.Sqrt(mat.SqDist(x, y))
	v, a := k.evalA(r)
	amp2 := math.Exp(2 * k.logAmp)
	var dLen float64
	if k.nu == 1.5 {
		dLen = amp2 * a * a * math.Exp(-a)
	} else {
		dLen = amp2 * a * a * (1 + a) / 3 * math.Exp(-a)
	}
	return v, []float64{dLen, 2 * v}
}

// NumParams implements Kernel.
func (k *Matern) NumParams() int { return 2 }

// Params implements Kernel.
func (k *Matern) Params() []float64 { return []float64{k.logLen, k.logAmp} }

// SetParams implements Kernel.
func (k *Matern) SetParams(p []float64) {
	if len(p) != 2 {
		panic(fmt.Sprintf("kernel: Matern.SetParams got %d params, want 2", len(p)))
	}
	k.logLen, k.logAmp = p[0], p[1]
}

// Clone implements Kernel.
func (k *Matern) Clone() Kernel { c := *k; return &c }

// Nu returns the smoothness parameter.
func (k *Matern) Nu() float64 { return k.nu }

// String implements Kernel.
func (k *Matern) String() string {
	return fmt.Sprintf("Matern(ν=%g, ℓ=%.4g, σ_f=%.4g)", k.nu, math.Exp(k.logLen), math.Exp(k.logAmp))
}

// RowEvaluator returns a batch fast path over a fixed design matrix xs:
// the returned function fills out[t] = k(x, xs.Row(from+t)) for t in
// [0, len(out)). For the RBF, ARD-RBF and Matérn kernels it hoists the
// hyperparameter transforms (three math.Exp calls per pair in the naive
// per-pair Eval) out of the loop and reuses squared norms of the rows of
// xs precomputed once per evaluator, so a row costs one exponential per
// pair plus a d-length dot. Other kernels fall back to per-pair Eval.
//
// The evaluator captures the kernel's hyperparameters at construction time
// and is safe for concurrent use; it must be rebuilt if the kernel's
// parameters or xs change. Callers that grow xs incrementally should hold a
// RowEval (NewRowEval) instead and use its O(d) Extend.
func RowEvaluator(k Kernel, xs *mat.Dense) func(x []float64, from int, out []float64) {
	return NewRowEval(k, xs).Eval
}

// gradRowEvaluator is the gradient companion of RowEvaluator: it fills
// val[t] = k(x, xs.Row(from+t)) and grads[p][t] = dk/dθ_p for each
// log-space hyperparameter. Safe for concurrent use. The isotropic RBF is
// not here: its gradient rows come from GradWorkspace alone.
func gradRowEvaluator(k Kernel, xs *mat.Dense) func(x []float64, from int, val []float64, grads [][]float64) {
	switch kk := k.(type) {
	case *ARDRBF:
		d := len(kk.logLens)
		invL := make([]float64, d)
		for i, ll := range kk.logLens {
			invL[i] = math.Exp(-ll)
		}
		amp2 := math.Exp(2 * kk.logAmp)
		return func(x []float64, from int, val []float64, grads [][]float64) {
			rd2 := make([]float64, d)
			for t := range val {
				y := xs.Row(from + t)
				var s float64
				for dd := 0; dd < d; dd++ {
					r := (x[dd] - y[dd]) * invL[dd]
					r2 := r * r
					rd2[dd] = r2
					s += r2
				}
				v := amp2 * math.Exp(-0.5*s)
				val[t] = v
				for dd := 0; dd < d; dd++ {
					grads[dd][t] = v * rd2[dd]
				}
				grads[d][t] = 2 * v
			}
		}
	case *Matern:
		l := math.Exp(kk.logLen)
		amp2 := math.Exp(2 * kk.logAmp)
		half := kk.nu == 1.5
		c1 := math.Sqrt(3) / l
		if !half {
			c1 = math.Sqrt(5) / l
		}
		norms := rowSqNorms(xs)
		return func(x []float64, from int, val []float64, grads [][]float64) {
			nx := sqNorm(x)
			g0, g1 := grads[0], grads[1]
			for t := range val {
				a := c1 * math.Sqrt(sqDistVia(nx, norms[from+t], x, xs.Row(from+t)))
				e := math.Exp(-a)
				if half {
					val[t] = amp2 * (1 + a) * e
					g0[t] = amp2 * a * a * e
				} else {
					val[t] = amp2 * (1 + a + a*a/3) * e
					g0[t] = amp2 * a * a * (1 + a) / 3 * e
				}
				g1[t] = 2 * val[t]
			}
		}
	default:
		return func(x []float64, from int, val []float64, grads [][]float64) {
			for t := range val {
				v, dv := k.EvalGrad(x, xs.Row(from+t))
				val[t] = v
				for p := range dv {
					grads[p][t] = dv[p]
				}
			}
		}
	}
}

// SqNorm returns Σ v_d² as the row evaluators compute it, for callers that
// keep the norms of a candidate pool (the RBF evaluator's EvalColumn).
func SqNorm(v []float64) float64 { return sqNorm(v) }

// sqNorm returns Σ v_d², in the same left-to-right order rowSqNorms uses,
// so that diagonal distances cancel exactly.
func sqNorm(v []float64) float64 {
	var s float64
	for _, a := range v {
		s += a * a
	}
	return s
}

// rowSqNorms precomputes the squared norm of every row of xs.
func rowSqNorms(xs *mat.Dense) []float64 {
	n := xs.Rows()
	norms := make([]float64, n)
	mat.ParallelFor(n, mat.ChunkFor(2*xs.Cols()), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			norms[i] = sqNorm(xs.Row(i))
		}
	})
	return norms
}

// columns returns the column-major copy of xs: out[i][j] = xs[j][i].
func columns(xs *mat.Dense) [][]float64 {
	n, d := xs.Rows(), xs.Cols()
	out := make([][]float64, d)
	for i := range out {
		col := make([]float64, n)
		for j := range col {
			col[j] = xs.At(j, i)
		}
		out[i] = col
	}
	return out
}

// sqDistVia computes |x−y|² = |x|² + |y|² − 2x·y from precomputed norms,
// clamped at zero against cancellation.
func sqDistVia(nx, ny float64, x, y []float64) float64 {
	var dot float64
	for i, v := range x {
		dot += v * y[i]
	}
	r2 := nx + ny - 2*dot
	if r2 < 0 {
		return 0
	}
	return r2
}

// scaleDims returns x scaled element-wise by invL.
func scaleDims(x, invL []float64) []float64 {
	z := make([]float64, len(x))
	for i, v := range x {
		z[i] = v * invL[i]
	}
	return z
}

// scaledRows precomputes the length-scale-normalized rows of xs, their
// squared norms, and the scale factors themselves.
func (k *ARDRBF) scaledRows(xs *mat.Dense) (*mat.Dense, []float64, []float64) {
	d := len(k.logLens)
	invL := make([]float64, d)
	for i, ll := range k.logLens {
		invL[i] = math.Exp(-ll)
	}
	n := xs.Rows()
	z := mat.NewDense(n, d, nil)
	zn := make([]float64, n)
	mat.ParallelFor(n, mat.ChunkFor(4*d), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := xs.Row(i)
			zi := z.Row(i)
			for dd := 0; dd < d; dd++ {
				zi[dd] = row[dd] * invL[dd]
			}
			zn[i] = sqNorm(zi)
		}
	})
	return z, zn, invL
}

// gramChunk sizes row chunks for symmetric assembly: a row of the Gram
// matrix costs ~32 flops per pair (one exponential dominates).
func gramChunk(n int) int { return mat.ChunkFor(32 * (n/2 + 1)) }

// Gram fills an n×n covariance matrix for the rows of x. The upper
// triangle is assembled row-parallel through the RowEvaluator fast path,
// then mirrored; every element is written by exactly one goroutine, so the
// result is identical for any worker count.
func Gram(k Kernel, x *mat.Dense) *mat.Dense {
	n := x.Rows()
	g := mat.NewDense(n, n, nil)
	ev := RowEvaluator(k, x)
	mat.ParallelFor(n, gramChunk(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ev(x.Row(i), i, g.Row(i)[i:])
		}
	})
	mirrorLower(g)
	return g
}

// mirrorLower copies the upper triangle of g into the lower triangle,
// row-parallel over destination rows.
func mirrorLower(g *mat.Dense) {
	n := g.Rows()
	mat.ParallelFor(n, mat.ChunkFor(n), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			rj := g.Row(j)
			for i := 0; i < j; i++ {
				rj[i] = g.Row(i)[j]
			}
		}
	})
}

// Cross fills the m×n covariance matrix between the rows of a and b,
// row-parallel over the rows of a.
func Cross(k Kernel, a, b *mat.Dense) *mat.Dense {
	m, n := a.Rows(), b.Rows()
	g := mat.NewDense(m, n, nil)
	ev := RowEvaluator(k, b)
	mat.ParallelFor(m, mat.ChunkFor(32*n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ev(a.Row(i), 0, g.Row(i))
		}
	})
	return g
}
