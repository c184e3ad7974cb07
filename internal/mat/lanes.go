package mat

import (
	"fmt"
	"math"
)

// Four-lane kernels: four independent values computed side by side, one
// per AVX2 vector lane. Lane c executes exactly the operation sequence the
// scalar code runs for value c (the lane-replay rule, DESIGN §5a), so a
// caller may switch between the two freely without changing a bit. On CPUs
// without AVX2+FMA the scalar code is the only path.

// HaveLanes reports whether the four-lane kernels run vector code on this
// CPU. Callers that regroup work into fours to feed them (gp.Sparse's
// prediction) keep their per-value code otherwise.
func HaveLanes() bool { return haveFMA }

// ExpLanes sets dst[i] = math.Exp(x[i]) with the bits math.Exp returns:
// groups of four go through the vector exponential when every argument
// lies in [−708, 709], where math.Exp's FMA path takes neither its denormal
// nor its overflow branch; any other group, and the len mod 4 tail, call
// math.Exp. dst may be x itself: each group is read before it is written.
func ExpLanes(dst, x []float64) {
	dst = dst[:len(x)]
	for i := 0; i < len(x); {
		i += expGroups(dst[i:], x[i:])
		for end := min(i+4, len(x)); i < end; i++ {
			dst[i] = math.Exp(x[i])
		}
	}
}

// RBFRows is the fused isotropic RBF kernel row. For leading groups of four
// rows t of out it sets
//
//	out[t] = amp2 · exp(−max0((nx + norms[j]) − 2⟨x, z_j⟩) · inv2l2),  j = off+t,
//
// where dimension i of design row z_j is cols[i][j] (a column-major copy of
// the design), nx and norms[j] are the caller's squared norms of x and z_j,
// ⟨x, z_j⟩ is summed left to right and unfused, and max0 maps a negative
// distance to +0 (−0 stays). It returns how many rows it wrote, a multiple
// of four: it stops at the first group whose exponent argument leaves
// [−708, 709] or is NaN, and before the last len(out) mod 4 rows. The
// caller finishes those rows with its scalar expression. It writes nothing
// when HaveLanes is false.
func RBFRows(out, x []float64, cols [][]float64, off int, norms []float64, nx, inv2l2, amp2 float64) int {
	end := off + len(out)&^3
	if len(cols) != len(x) || len(norms) < end {
		panic(fmt.Sprintf("mat: RBFRows with %d columns for dim %d, %d norms for rows to %d", len(cols), len(x), len(norms), end))
	}
	for i, col := range cols {
		if len(col) < end {
			panic(fmt.Sprintf("mat: RBFRows column %d has %d rows, need %d", i, len(col), end))
		}
	}
	return rbfGroups(out, x, cols, off, norms, nx, inv2l2, amp2)
}

// ForwardSolveLanes solves L y_c = b_c in place for four right-hand sides
// stored interleaved: y[4j+c] holds element j of lane c, len(y) = 4·Size.
// It runs forwardBlocked's serial sweep with the same cholBlock blocking,
// and every per-lane dot replays adot's order for its length, so lane c
// ends with exactly the bits ForwardSolveVecToSerial gives for b_c.
func (c *Cholesky) ForwardSolveLanes(y []float64) {
	n := c.n
	if len(y) != 4*n {
		panic(fmt.Sprintf("mat: ForwardSolveLanes length %d for size %d", len(y), n))
	}
	for kb := 0; kb < n; kb += cholBlock {
		kend := min(kb+cholBlock, n)
		yb := y[4*kb : 4*kend]
		for i := kb; i < kend; i++ {
			ri := c.row(i)
			fwdLanes(ri[kb:i], yb, y[4*i:4*i+4], ri[i], true)
		}
		for i := kend; i < n; i++ {
			fwdLanes(c.row(i)[kb:kend], yb, y[4*i:4*i+4], 0, false)
		}
	}
}

// fwdLanesGo is fwdLanes without vector code. With haveFMA false adot is
// dot4 at every length, which dotLanes replays per lane.
func fwdLanesGo(a, y, yi []float64, d float64, div bool) {
	s := dotLanes(a, y)
	for c := range s {
		if div {
			yi[c] = (yi[c] - s[c]) / d
		} else {
			yi[c] -= s[c]
		}
	}
}

// dotLanes returns dot4(a, lane c of y) for each lane c of the interleaved
// y: the same four unfused accumulators, tail and (s0+s1)+(s2+s3) combine.
func dotLanes(a, y []float64) (s [4]float64) {
	n := len(a)
	y = y[:4*n]
	var s0, s1, s2, s3 [4]float64
	i := 0
	for ; i+4 <= n; i += 4 {
		for c := range s0 {
			s0[c] += a[i] * y[4*i+c]
			s1[c] += a[i+1] * y[4*i+4+c]
			s2[c] += a[i+2] * y[4*i+8+c]
			s3[c] += a[i+3] * y[4*i+12+c]
		}
	}
	for ; i < n; i++ {
		for c := range s0 {
			s0[c] += a[i] * y[4*i+c]
		}
	}
	for c := range s {
		s[c] = (s0[c] + s1[c]) + (s2[c] + s3[c])
	}
	return s
}
