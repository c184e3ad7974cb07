package kernel

import (
	"math"

	"alamr/internal/mat"
)

// GradWorkspace evaluates K and ∂K/∂θ over one fixed design at many
// hyperparameter settings, the access pattern of a marginal-likelihood
// search. It keeps the n×n output matrices across calls and, for the
// isotropic RBF, the pairwise squared distances, which do not depend on θ.
//
// The matrices GramGrad returns belong to the workspace and are overwritten
// by its next call. A workspace is not safe for concurrent use; the design
// must not change while the workspace is in use.
type GradWorkspace struct {
	x     *mat.Dense
	k     *mat.Dense
	grads []*mat.Dense
	// r2 is the packed upper triangle of ‖x_i − x_j‖² (row i holds j ≥ i,
	// starting at packedRow(n, i)), computed on the first RBF call.
	r2 []float64
}

// NewGradWorkspace creates a workspace over the rows of x.
func NewGradWorkspace(x *mat.Dense) *GradWorkspace {
	n := x.Rows()
	return &GradWorkspace{x: x, k: mat.NewDense(n, n, nil)}
}

// GramGrad returns the covariance matrix of the design under k together
// with one matrix per hyperparameter holding dK/dθ element-wise. Rows are
// assembled in parallel and each element is written by one goroutine, so
// the result does not depend on the worker count.
func (w *GradWorkspace) GramGrad(k Kernel) (*mat.Dense, []*mat.Dense) {
	n := w.x.Rows()
	p := k.NumParams()
	if len(w.grads) != p {
		w.grads = make([]*mat.Dense, p)
		for t := range w.grads {
			w.grads[t] = mat.NewDense(n, n, nil)
		}
	}
	if kk, ok := k.(*RBF); ok {
		w.rbf(kk)
		return w.k, w.grads
	}
	ev := gradRowEvaluator(k, w.x)
	mat.ParallelFor(n, gramChunk(n), func(lo, hi int) {
		local := make([][]float64, p)
		for i := lo; i < hi; i++ {
			for t := 0; t < p; t++ {
				local[t] = w.grads[t].Row(i)[i:]
			}
			ev(w.x.Row(i), i, w.k.Row(i)[i:], local)
		}
	})
	mirrorLower(w.k)
	for _, g := range w.grads {
		mirrorLower(g)
	}
	return w.k, w.grads
}

// GramGrad is the one-shot form of GradWorkspace.GramGrad: the returned
// matrices are the caller's.
func GramGrad(k Kernel, x *mat.Dense) (*mat.Dense, []*mat.Dense) {
	return NewGradWorkspace(x).GramGrad(k)
}

// rbf fills K, ∂K/∂(log ℓ) and ∂K/∂(log σ_f) for the isotropic RBF. Row i
// of the upper triangle is one pass: the exponent arguments −r²·inv2l2 go
// into K's row, mat.ExpLanes exponentiates them in place with math.Exp's
// bits, and then each pair's value v = amp2·e, v·r²·invl2 and 2v are
// written to (i, j) and (j, i) together.
func (w *GradWorkspace) rbf(kk *RBF) {
	l := math.Exp(kk.logLen)
	invl2 := 1 / (l * l)
	inv2l2 := 0.5 * invl2
	amp2 := math.Exp(2 * kk.logAmp)
	r2 := w.sqDists()
	n := w.x.Rows()
	kd := w.k.RawData()
	g0, g1 := w.grads[0].RawData(), w.grads[1].RawData()
	mat.ParallelFor(n, gramChunk(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ri := r2[packedRow(n, i) : packedRow(n, i)+n-i]
			ki := kd[i*n+i : (i+1)*n]
			for t, d := range ri {
				ki[t] = -d * inv2l2
			}
			mat.ExpLanes(ki, ki)
			for t, e := range ki {
				v := amp2 * e
				dl := v * ri[t] * invl2
				ij, ji := i*n+i+t, (i+t)*n+i
				kd[ij], kd[ji] = v, v
				g0[ij], g0[ji] = dl, dl
				g1[ij], g1[ji] = 2*v, 2*v
			}
		}
	})
}

// sqDists returns the packed pairwise squared distances, computing them on
// first use through sqDistVia and the rows' squared norms, the arithmetic
// of every RBF row evaluator.
func (w *GradWorkspace) sqDists() []float64 {
	if w.r2 != nil {
		return w.r2
	}
	x := w.x
	n := x.Rows()
	norms := rowSqNorms(x)
	r2 := make([]float64, n*(n+1)/2)
	mat.ParallelFor(n, gramChunk(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xi := x.Row(i)
			ri := r2[packedRow(n, i) : packedRow(n, i)+n-i]
			for t := range ri {
				ri[t] = sqDistVia(norms[i], norms[i+t], xi, x.Row(i+t))
			}
		}
	})
	w.r2 = r2
	return r2
}

// packedRow is the offset of row i in a packed n×n upper triangle.
func packedRow(n, i int) int { return i*n - i*(i-1)/2 }
