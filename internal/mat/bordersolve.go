package mat

import "fmt"

// This file holds the solve kernels behind the incremental posterior cache
// (gp.ScoringCache): a scratch-buffer variant of the blocked forward solve
// for the one-shot prediction path, and the flat/bordered pair whose
// floating-point grouping is the cache's bitwise-replay contract.
//
// The contract: ForwardSolveFlatTo applies plain row-by-row forward
// substitution, each row a single full-prefix adot. BorderSolveStep is
// exactly one such row, applied to the factor's newest (bordered) row.
// Solving a length-n system flat therefore produces bit-for-bit the same
// vector as solving length n₀ flat and then applying n−n₀ border steps as
// the factor grows — which is what lets a cache rebuilt at checkpoint-resume
// time agree bitwise with one maintained incrementally across appends.

// ForwardSolveVecTo solves L y = b into dst without allocating, on the
// calling goroutine: the blocked sweep and adot groupings of
// ForwardSolveVec, bitwise-identical result. dst and b must both have
// length Size; dst may alias b. Per-candidate solves that already run
// inside an outer ParallelFor (the prediction hot path) use it so the inner
// solve never pays a nested dispatch allocation.
func (c *Cholesky) ForwardSolveVecTo(dst, b []float64) {
	if len(b) != c.n || len(dst) != c.n {
		panic(fmt.Sprintf("mat: ForwardSolveVecTo lengths %d/%d do not match size %d", len(dst), len(b), c.n))
	}
	copy(dst, b)
	c.forwardBlocked(dst, false)
}

// ForwardSolveFlatTo solves L y = b into dst by unblocked forward
// substitution — row i is one adot over the full prefix — and returns the
// running sum Σ dst[i]² accumulated in index order. It is serial and
// cache-unfriendly compared with ForwardSolveVecTo's blocked sweep, but its
// per-row grouping is identical to BorderSolveStep's, which makes it the
// rebuild path of the incremental posterior cache: rebuilt and
// incrementally-extended solve vectors (and their norms) agree bitwise.
func (c *Cholesky) ForwardSolveFlatTo(dst, b []float64) float64 {
	if len(b) != c.n || len(dst) != c.n {
		panic(fmt.Sprintf("mat: ForwardSolveFlatTo lengths %d/%d do not match size %d", len(dst), len(b), c.n))
	}
	var sum float64
	for i := 0; i < c.n; i++ {
		ri := c.row(i)
		yi := (b[i] - adot(ri[:i], dst[:i])) / ri[i]
		dst[i] = yi
		sum += yi * yi
	}
	return sum
}

// ForwardSolveStrided runs ForwardSolveFlatTo's rows from..Size−1 for
// len(ss) right-hand sides stored entry-major: element i of vector t is
// b[i·stride+t] and of its solution y[i·stride+t] (stride ≥ len(ss); y may
// be b). For each t and row i it sets
//
//	y_t[i] = (b_t[i] − adot(L_i[:i], y_t[:i])) / L_ii,   ss[t] += y_t[i]²
//
// reading y_t's first from entries as already solved. With from = 0 and
// ss[t] = 0 that is ForwardSolveFlatTo(y_t, b_t) and its returned sum; with
// from = Size−1 it is BorderSolveStep and the running-norm update after it,
// bit for bit either way. Blocks of eight vectors run in the strided lane
// kernel; the len(ss) mod 8 tail, and every vector on CPUs without
// AVX2+FMA, replay adot in place.
func (c *Cholesky) ForwardSolveStrided(y, b []float64, stride, from int, ss []float64) {
	n, m := c.n, len(ss)
	if from < 0 || m > stride || (from < n && m > 0 && (len(y) < (n-1)*stride+m || len(b) < (n-1)*stride+m)) {
		panic(fmt.Sprintf("mat: ForwardSolveStrided of %d vectors, stride %d, from row %d of %d, over %d and %d values", m, stride, from, n, len(y), len(b)))
	}
	if from >= n || m == 0 {
		return
	}
	for t := solveStridedBlocks(c.data, from, n, y, b, stride, ss); t < m; t++ {
		for i := from; i < n; i++ {
			ri := c.row(i)
			yi := (b[i*stride+t] - adotStrided(ri[:i], y[t:], stride)) / ri[i]
			y[i*stride+t] = yi
			ss[t] += yi * yi
		}
	}
}

// BorderSolveStep extends a forward-solve vector by one entry after the
// factor grew by a bordered row (Extend): given v = L_old⁻¹ k_old and the
// new right-hand-side entry kNew, it returns
//
//	vNew = (kNew − l·v) / d
//
// where (l, d) is the factor's newest packed row. The dot is the same
// SIMD-dispatched adot kernel ForwardSolveFlatTo uses over the same stored
// factor values, so one incremental step is bitwise a flat-solve row. This
// is the O(n) per-candidate work of the cache's append fast path.
func (c *Cholesky) BorderSolveStep(v []float64, kNew float64) float64 {
	if len(v) != c.n-1 {
		panic(fmt.Sprintf("mat: BorderSolveStep solve length %d does not match border %d", len(v), c.n-1))
	}
	r := c.row(c.n - 1)
	return (kNew - adot(r[:c.n-1], v)) / r[c.n-1]
}
