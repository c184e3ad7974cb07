package mat

import "fmt"

// This file holds the forward solves behind prediction and the incremental
// posterior caches (gp.ScoringCache). They share one floating-point order,
// forwardBlocked's: row i's dot with the solved prefix is split at the
// cholBlock column panels, and the panel dots, each in adot's order, are
// subtracted from b_i in ascending order before the divide by L_ii.
//
// Row i reads only entries 0..i−1, and those are final once solved. So
// after the factor grows by a bordered row (Extend), solving that one row
// appends exactly the entry a solve from row 0 against the grown factor
// ends with, and the running Σy² in index order is Dot's either way. A
// cache rebuilt at checkpoint-resume time therefore agrees bitwise with one
// maintained incrementally across appends, and both give Predict's σ.

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

// ForwardSolveStrided runs ForwardSolveVecTo's rows from..Size−1 for
// len(ss) right-hand sides stored entry-major: element i of vector t is
// b[i·stride+t] and of its solution y[i·stride+t] (stride ≥ len(ss); y may
// be b). For each t and row i it sets
//
//	y_t[i] = ((b_t[i] − d₀) − d₁ − …) / L_ii,   ss[t] += y_t[i]²
//
// where d_p is adot of row i with y_t over panel p's columns below i
// (cholBlock·p up to min(cholBlock·(p+1), i)), reading y_t's first from
// entries as already solved. With from = 0 and ss[t] = 0 that is
// ForwardSolveVecTo(y_t, b_t) and Dot(y_t, y_t); with from = Size−1 it is
// the last entry of that solve and the running-norm update after it, bit
// for bit either way. Blocks of eight vectors run in the strided lane
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
			yi := b[i*stride+t]
			kb := 0
			for ; kb+cholBlock < i; kb += cholBlock {
				yi -= adotStrided(ri[kb:kb+cholBlock], y[kb*stride+t:], stride)
			}
			yi = (yi - adotStrided(ri[kb:i], y[kb*stride+t:], stride)) / ri[i]
			y[i*stride+t] = yi
			ss[t] += yi * yi
		}
	}
}
