package mat

import (
	"errors"
	"fmt"
	"math"

	"alamr/internal/obs"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization encounters
// a non-positive pivot even after the maximum jitter has been applied.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// cholBlock is the panel width of the blocked factorization and solves. It
// is a fixed constant: the grouping of partial inner products — and hence
// the floating-point result — must depend only on the problem size, never
// on the worker count, for the determinism contract to hold.
const cholBlock = 64

// Cholesky holds the lower-triangular factor L of a symmetric
// positive-definite matrix A = L Lᵀ, together with the diagonal jitter that
// was required to make the factorization succeed.
//
// The factor is stored packed: row i occupies i+1 contiguous elements
// starting at i(i+1)/2. Packed rows halve the memory of a square factor and
// make Extend (growing the factor by one bordered row, the AL fast path) an
// amortized O(n) append instead of an O(n²) reallocation-and-copy.
type Cholesky struct {
	n      int
	data   []float64
	jitter float64
}

// row returns packed row i (length i+1).
func (c *Cholesky) row(i int) []float64 {
	off := i * (i + 1) / 2
	return c.data[off : off+i+1]
}

// NewCholesky factorizes the symmetric positive-definite matrix a.
// Only the lower triangle of a is read. The input is not modified.
//
// The factorization is right-looking and blocked: each iteration factors a
// cholBlock-wide diagonal block serially, then fans the panel solve and the
// trailing-matrix update out over the worker pool. Each element of the
// factor is produced by exactly one goroutine with a summation order fixed
// by (n, cholBlock) alone, so parallel and serial runs agree bitwise.
func NewCholesky(a *Dense) (*Cholesky, error) {
	return newCholesky(a, 0)
}

// NewCholeskyJitter factorizes a, adding an escalating diagonal jitter
// (starting at start, multiplied by 10 each retry, up to max) whenever a
// pivot is non-positive. This is the standard defence for Gram matrices with
// duplicated rows, which are a normal condition in active learning datasets
// containing repeated measurements. Each escalation step tried counts once
// in alamr_mat_chol_jitter_steps_total, and giving up at max once in
// alamr_mat_chol_jitter_failed_total.
func NewCholeskyJitter(a *Dense, start, max float64) (*Cholesky, error) {
	ch, err := newCholesky(a, 0)
	if err == nil {
		return ch, nil
	}
	for j := start; j <= max; j *= 10 {
		obs.CholJitterSteps.Inc()
		ch, err = newCholesky(a, j)
		if err == nil {
			return ch, nil
		}
	}
	obs.CholJitterFailed.Inc()
	return nil, fmt.Errorf("%w (after jitter up to %g)", ErrNotPositiveDefinite, max)
}

func newCholesky(a *Dense, jitter float64) (*Cholesky, error) {
	if a.rows != a.cols {
		panic("mat: Cholesky of non-square matrix")
	}
	n := a.rows
	c := &Cholesky{n: n, data: make([]float64, n*(n+1)/2), jitter: jitter}
	ParallelFor(n, ChunkFor(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(c.row(i), a.data[i*a.cols:i*a.cols+i+1])
		}
	})
	if jitter != 0 {
		for i := 0; i < n; i++ {
			c.row(i)[i] += jitter
		}
	}
	if err := c.factor(); err != nil {
		return nil, err
	}
	return c, nil
}

// factor runs the blocked right-looking factorization in place over the
// packed lower triangle of A already loaded into c.data.
func (c *Cholesky) factor() error {
	n := c.n
	for kb := 0; kb < n; kb += cholBlock {
		kend := kb + cholBlock
		if kend > n {
			kend = n
		}
		// Diagonal block: unblocked serial factorization of A[kb:kend, kb:kend].
		for j := kb; j < kend; j++ {
			rj := c.row(j)
			s := rj[j] - adot(rj[kb:j], rj[kb:j])
			if s <= 0 || math.IsNaN(s) {
				return ErrNotPositiveDefinite
			}
			d := math.Sqrt(s)
			rj[j] = d
			for i := j + 1; i < kend; i++ {
				ri := c.row(i)
				ri[j] = (ri[j] - adot(ri[kb:j], rj[kb:j])) / d
			}
		}
		if kend == n {
			break
		}
		// Panel solve: L[kend:, kb:kend] = A[kend:, kb:kend]·L_bbᵀ⁻¹,
		// forward substitution per row; rows are independent.
		bw := kend - kb
		ParallelFor(n-kend, ChunkFor(bw*bw), func(lo, hi int) {
			for i := kend + lo; i < kend+hi; i++ {
				ri := c.row(i)
				for j := kb; j < kend; j++ {
					rj := c.row(j)
					ri[j] = (ri[j] - adot(ri[kb:j], rj[kb:j])) / rj[j]
				}
			}
		})
		// Trailing update: A[i,j] -= L[i, kb:kend]·L[j, kb:kend] for
		// kend <= j <= i. Row-parallel and tiled over i so each (cold)
		// j-panel row is streamed from cache once per tile instead of
		// once per row. Tiling only reorders whole adot calls, never the
		// summation inside one, so chunk and tile boundaries stay outside
		// the numerical contract and each element is updated once per
		// block.
		const iTile = 8
		ParallelFor(n-kend, ChunkFor(bw*(n-kend)/2+1), func(lo, hi int) {
			for it := kend + lo; it < kend+hi; it += iTile {
				itEnd := it + iTile
				if itEnd > kend+hi {
					itEnd = kend + hi
				}
				for j := kend; j < itEnd; j++ {
					pj := c.row(j)[kb:kend]
					i := it
					if j > i {
						i = j
					}
					for ; i < itEnd; i++ {
						ri := c.row(i)
						ri[j] -= adot(ri[kb:kend], pj)
					}
				}
			}
		})
	}
	return nil
}

// Extend grows the factorization of an n×n matrix A to n+1 by a bordered
// row: given the solved border l = L⁻¹k and the new pivot d (so that the
// extended matrix is [[A, k],[kᵀ, lᵀl+d²]]), it appends one packed row in
// amortized O(n) — no reallocation of the existing factor.
func (c *Cholesky) Extend(border []float64, pivot float64) {
	if len(border) != c.n {
		panic(fmt.Sprintf("mat: Extend border length %d does not match size %d", len(border), c.n))
	}
	if pivot <= 0 || math.IsNaN(pivot) {
		panic(fmt.Sprintf("mat: Extend pivot %g must be positive", pivot))
	}
	c.data = append(c.data, border...)
	c.data = append(c.data, pivot)
	c.n++
}

// L returns the lower-triangular factor as a newly allocated dense matrix.
// It is a copy: mutating it does not affect the factorization.
func (c *Cholesky) L() *Dense {
	l := NewDense(c.n, c.n, nil)
	for i := 0; i < c.n; i++ {
		copy(l.data[i*c.n:i*c.n+i+1], c.row(i))
	}
	return l
}

// Jitter reports the diagonal jitter that was added before factorization.
func (c *Cholesky) Jitter() float64 { return c.jitter }

// Size returns the dimension of the factored matrix.
func (c *Cholesky) Size() int { return c.n }

// SolveVec solves A x = b where A = L Lᵀ, returning x.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("mat: SolveVec length %d does not match size %d", len(b), c.n))
	}
	x := make([]float64, c.n)
	copy(x, b)
	c.forwardInPlace(x)
	c.backwardInPlace(x)
	return x
}

// Rank1Update replaces the factorization of A with that of A + u uᵀ in
// O(n²), the classic Givens-based cholupdate run over the packed lower
// factor. This is the sparse surrogate's append fast path: absorbing one
// observation updates the inducing-space normal matrix A by exactly one
// rank-1 term, so the O(n³) refactorization is never needed. u is consumed
// (overwritten with intermediate values).
func (c *Cholesky) Rank1Update(u []float64) {
	if len(u) != c.n {
		panic(fmt.Sprintf("mat: Rank1Update length %d does not match size %d", len(u), c.n))
	}
	n := c.n
	for k := 0; k < n; k++ {
		rk := c.row(k)
		d := rk[k]
		r := math.Hypot(d, u[k])
		cos, sin := r/d, u[k]/d
		rk[k] = r
		if k == n-1 {
			break
		}
		// Column k of the packed factor is strided: element (i, k) lives at
		// row(i)[k]. n is the inducing count (small), so the strided walk
		// stays cheap relative to the row-major hot paths.
		for i := k + 1; i < n; i++ {
			ri := c.row(i)
			ri[k] = (ri[k] + sin*u[i]) / cos
			u[i] = cos*u[i] - sin*ri[k]
		}
	}
}

// ForwardSolveVec solves L y = b, the half-solve used for predictive
// variances (v = L⁻¹k*).
func (c *Cholesky) ForwardSolveVec(b []float64) []float64 {
	if len(b) != c.n {
		panic(fmt.Sprintf("mat: ForwardSolveVec length %d does not match size %d", len(b), c.n))
	}
	y := make([]float64, c.n)
	copy(y, b)
	c.forwardInPlace(y)
	return y
}

// forwardInPlace solves L y = y. Blocked: after the serial in-block
// substitution, the updates to the rows below the block are independent and
// fan out over the pool.
func (c *Cholesky) forwardInPlace(y []float64) {
	c.forwardBlocked(y, true)
}

// forwardBlocked is the blocked forward substitution behind both solve
// entry points. The parallel and serial paths compute every y[i] from the
// same adot groupings in the same order, so they are bitwise-identical; the
// serial path exists for per-candidate solves that already run inside an
// outer parallel section, where a nested dispatch is pure allocation
// overhead.
func (c *Cholesky) forwardBlocked(y []float64, parallel bool) {
	n := c.n
	for kb := 0; kb < n; kb += cholBlock {
		kend := kb + cholBlock
		if kend > n {
			kend = n
		}
		for i := kb; i < kend; i++ {
			ri := c.row(i)
			y[i] = (y[i] - adot(ri[kb:i], y[kb:i])) / ri[i]
		}
		if kend == n {
			break
		}
		if parallel {
			bw := kend - kb
			ParallelFor(n-kend, ChunkFor(2*bw), func(lo, hi int) {
				for i := kend + lo; i < kend+hi; i++ {
					y[i] -= adot(c.row(i)[kb:kend], y[kb:kend])
				}
			})
		} else {
			for i := kend; i < n; i++ {
				y[i] -= adot(c.row(i)[kb:kend], y[kb:kend])
			}
		}
	}
}

// backwardInPlace solves Lᵀ x = x. Blocks run from the bottom; after the
// serial in-block substitution the remaining update is a sequence of
// row-contiguous axpys, parallel over disjoint ranges of x.
func (c *Cholesky) backwardInPlace(x []float64) {
	n := c.n
	if n == 0 {
		return
	}
	kbStart := ((n - 1) / cholBlock) * cholBlock
	for kb := kbStart; kb >= 0; kb -= cholBlock {
		kend := kb + cholBlock
		if kend > n {
			kend = n
		}
		for i := kend - 1; i >= kb; i-- {
			s := x[i]
			for k := i + 1; k < kend; k++ {
				s -= c.row(k)[i] * x[k]
			}
			x[i] = s / c.row(i)[i]
		}
		if kb == 0 {
			break
		}
		bw := kend - kb
		ParallelFor(kb, ChunkFor(2*bw), func(lo, hi int) {
			for k := kb; k < kend; k++ {
				rk := c.row(k)[lo:hi]
				xs := x[lo:hi]
				xk := x[k]
				for j, v := range rk {
					xs[j] -= xk * v
				}
			}
		})
	}
}

// InverseTo returns A⁻¹ from the factorization as L⁻ᵀL⁻¹, in caller-owned
// n×n matrices: u holds U = L⁻ᵀ as scratch and dst receives A⁻¹, which it
// returns. First U is built one row at a time (row j of U is the forward
// solve of e_j, a contiguous write), then A⁻¹_ij = U_i·U_j over the shared
// tail. Both passes are row-parallel with contiguous access, roughly 6x
// less work than solving for each unit vector through both triangles.
// Every element the second pass reads is written first, so the buffers may
// hold anything on entry; a hyperparameter search reuses one pair across
// its evaluations.
func (c *Cholesky) InverseTo(u, dst *Dense) *Dense {
	n := c.n
	if u.rows != n || u.cols != n || dst.rows != n || dst.cols != n {
		panic(fmt.Sprintf("mat: InverseTo buffers %dx%d and %dx%d for size %d", u.rows, u.cols, dst.rows, dst.cols, n))
	}
	ParallelFor(n, ChunkFor(n*n/2+1), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			uj := u.data[j*n : (j+1)*n]
			uj[j] = 1 / c.row(j)[j]
			for i := j + 1; i < n; i++ {
				ri := c.row(i)
				uj[i] = -adot(ri[j:i], uj[j:i]) / ri[i]
			}
		}
	})
	ParallelFor(n, ChunkFor(n*n/2+1), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ui := u.data[i*n : (i+1)*n]
			for j := i; j < n; j++ {
				uj := u.data[j*n : (j+1)*n]
				dst.data[i*n+j] = adot(ui[j:], uj[j:])
			}
		}
	})
	// Mirror the upper triangle into the lower.
	ParallelFor(n, ChunkFor(n), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			for i := 0; i < j; i++ {
				dst.data[j*n+i] = dst.data[i*n+j]
			}
		}
	})
	return dst
}

// LogDet returns log |A| = 2 Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.n; i++ {
		s += math.Log(c.row(i)[i])
	}
	return 2 * s
}
