//go:build amd64

package mat

//go:noescape
func expAsm(dst, src *float64, n int) int

func rbfRowsAsm(out, x *float64, d int, cols *[]float64, off int, norms *float64, n int, nx, inv2l2, amp2 float64) int

//go:noescape
func rbfLanesAsm(w, x, xt *float64, d int, z, norms, beta *float64, j, m int, inv2l2, amp2 float64, mu *[8]float64) int

// expGroups writes dst[i] = math.Exp(x[i]) for leading groups of four and
// returns how many it wrote (see lanes_amd64.s).
func expGroups(dst, x []float64) int {
	n := len(x) &^ 3
	if !haveFMA || n == 0 {
		return 0
	}
	return expAsm(&dst[0], &x[0], n)
}

// rbfGroups is RBFRows's vector part; its caller has checked the shapes.
func rbfGroups(out, x []float64, cols [][]float64, off int, norms []float64, nx, inv2l2, amp2 float64) int {
	n := len(out) &^ 3
	if !haveFMA || n == 0 {
		return 0
	}
	var xp *float64
	var cp *[]float64
	if len(x) > 0 {
		xp, cp = &x[0], &cols[0]
	}
	return rbfRowsAsm(&out[0], xp, len(x), cp, off, &norms[0], n, nx, inv2l2, amp2)
}

// rbfLaneRows is RBFLanes's vector part; its caller has checked the shapes
// and that rows from..len(norms)−1 remain.
func rbfLaneRows(w, x, xt, z, norms, beta []float64, from int, inv2l2, amp2 float64, mu *[8]float64) int {
	if !haveFMA {
		return from
	}
	d := len(x) / 8
	var xp, xtp, zp *float64
	if d > 0 {
		xp, xtp, zp = &x[0], &xt[0], &z[0]
	}
	return rbfLanesAsm(&w[0], xp, xtp, d, zp, &norms[0], &beta[0], from, len(norms), inv2l2, amp2, mu)
}

//go:noescape
func dotLanesAsm(a *float64, n int, y *float64, stride int, out *float64, blocks int)

//go:noescape
func solveLanesAsm(l *float64, from, to int, b, y *float64, stride int, ss *float64, blocks int)

// dotStridedBlocks is DotStrided's vector part over the leading blocks of
// eight; it returns how many values it wrote. Its caller has checked the
// shapes and that a is not empty.
func dotStridedBlocks(out, a, y []float64, stride int) int {
	blocks := len(out) / 8
	if !haveFMA || blocks == 0 {
		return 0
	}
	dotLanesAsm(&a[0], len(a), &y[0], stride, &out[0], blocks)
	return 8 * blocks
}

// solveStridedBlocks is ForwardSolveStrided's vector part over the leading
// blocks of eight; it returns how many vectors it solved. Its caller has
// checked the shapes and that rows from..n−1 remain.
func solveStridedBlocks(l []float64, from, n int, y, b []float64, stride int, ss []float64) int {
	blocks := len(ss) / 8
	if !haveFMA || blocks == 0 {
		return 0
	}
	solveLanesAsm(&l[0], from, n, &b[0], &y[0], stride, &ss[0], blocks)
	return 8 * blocks
}
