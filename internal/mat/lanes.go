package mat

import (
	"fmt"
	"math"
)

// Lane kernels: independent values computed side by side, four per AVX2
// vector. Lane c executes exactly the operation sequence the scalar code
// runs for value c (the lane-replay rule, DESIGN §5a), so a caller may
// switch between the two freely without changing a bit. On CPUs without
// AVX2+FMA the scalar code is the only path.

// HaveLanes reports whether the lane kernels run vector code on this CPU.
// Callers that regroup work into blocks to feed them (gp.Sparse's
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

// RBFLanes is the candidate-major fused isotropic RBF kernel for a block of
// eight candidates, written entry-major at stride 8, the layout
// ForwardSolveStrided(w, w, 8, 0, ss) solves in place. x holds the
// candidates' rows back to back (8·d values), z the design rows row-major
// (len(norms)·d values). For design rows j = from, from+1, ... it sets, for
// each candidate c,
//
//	w[8j+c] = amp2 · exp(−max0((nx_c + norms[j]) − 2⟨x_c, z_j⟩) · inv2l2)
//	mu[c]  += w[8j+c] · beta[j]
//
// where nx_c is the squared norm of x_c summed left to right, ⟨x_c, z_j⟩ is
// summed left to right and unfused, max0 is RBFRows's, and mu's sums are
// unfused: a caller that starts from 0 with mu zero ends with Dot(k_c, beta)
// for candidate c's kernel row k_c. xt is scratch for x transposed (8·d
// values). It returns the first row it did not write: len(norms) when it
// finished, else a row where some lane's exponent argument leaves
// [−708, 709] or is NaN. The caller evaluates that row with its scalar
// expression and calls again from the next one. It writes nothing when
// HaveLanes is false.
func RBFLanes(w, x, xt, z, norms, beta []float64, from int, inv2l2, amp2 float64, mu *[8]float64) int {
	m := len(norms)
	d := len(x) / 8
	if len(x) != 8*d || len(xt) < len(x) || len(z) < m*d || len(beta) < m || len(w) < 8*m || from < 0 || from > m {
		panic(fmt.Sprintf("mat: RBFLanes from row %d with %d candidate values, %d scratch, %d design values, %d weights and %d outputs for %d rows", from, len(x), len(xt), len(z), len(beta), len(w), m))
	}
	if from == m {
		return m
	}
	return rbfLaneRows(w, x, xt, z, norms, beta, from, inv2l2, amp2, mu)
}

// DotStrided sets out[t] = DotBlocked(a, y_t) for t in [0, len(out)), where
// y_t is the vector stored entry-major at stride: y_t[j] = y[j·stride+t]
// (stride ≥ len(out)). Blocks of eight vectors run in the strided lane
// kernel, lane t replaying adot's order for len(a); the len(out) mod 8
// tail, and every vector on CPUs without AVX2+FMA, replay adot in place.
// Every value has DotBlocked's bits.
func DotStrided(out, a, y []float64, stride int) {
	n, m := len(a), len(out)
	if m > stride || (n > 0 && m > 0 && len(y) < (n-1)*stride+m) {
		panic(fmt.Sprintf("mat: DotStrided of %d vectors of length %d, stride %d, over %d values", m, n, stride, len(y)))
	}
	if n == 0 {
		clear(out) // adot of empty vectors is +0
		return
	}
	for t := dotStridedBlocks(out, a, y, stride); t < m; t++ {
		out[t] = adotStrided(a, y[t:], stride)
	}
}
