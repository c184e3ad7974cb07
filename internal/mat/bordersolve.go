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

// ForwardSolveFlatLanes is ForwardSolveFlatTo for eight right-hand sides
// stored interleaved as ForwardSolveLanes stores them (y[8j+c] holds element
// j of lane c, len(y) = 8·Size): it solves every lane in place and returns
// ss[c], lane c's running Σ y_c[j]². Lane c ends with exactly the bits
// ForwardSolveFlatTo gives for b_c, and ss[c] with those of its sum.
//
// Up to cholBlock rows the blocked sweep is a single block, whose rows are
// the flat solve's full-prefix adot rows, and ForwardSolveLanes sums Σy² in
// index order like the flat running sum; so the one-call lane sweep runs
// there. Larger systems solve each lane flat.
func (c *Cholesky) ForwardSolveFlatLanes(y []float64) (ss [8]float64) {
	n := c.n
	if len(y) != 8*n {
		panic(fmt.Sprintf("mat: ForwardSolveFlatLanes length %d for size %d", len(y), n))
	}
	if n <= cholBlock {
		return c.ForwardSolveLanes(y)
	}
	lane := make([]float64, n)
	for l := range ss {
		for j := range lane {
			lane[j] = y[8*j+l]
		}
		ss[l] = c.ForwardSolveFlatTo(lane, lane)
		for j, v := range lane {
			y[8*j+l] = v
		}
	}
	return ss
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
