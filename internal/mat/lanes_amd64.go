//go:build amd64

package mat

func expAsm(dst, src *float64, n int) int
func rbfRowsAsm(out, x *float64, d int, cols *[]float64, off int, norms *float64, n int, nx, inv2l2, amp2 float64) int
func fwdLanesAsm(a, y *float64, n int, yi *float64, d float64, div bool)

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

// fwdLanes is one forward-substitution row for four interleaved
// right-hand sides: s = a·y per lane in adot's order, then yi = (yi − s)/d
// when div, else yi −= s.
func fwdLanes(a, y, yi []float64, d float64, div bool) {
	if haveFMA && len(a) > 0 {
		fwdLanesAsm(&a[0], &y[0], len(a), &yi[0], d, div)
		return
	}
	fwdLanesGo(a, y, yi, d, div)
}
