//go:build !amd64

package mat

// Portable forms of the four-lane kernels: no vector groups, so every value
// comes from the scalar code.

func expGroups(dst, x []float64) int { return 0 }

func rbfGroups(out, x []float64, cols [][]float64, off int, norms []float64, nx, inv2l2, amp2 float64) int {
	return 0
}

func fwdLanes(a, y, yi []float64, d float64, div bool) { fwdLanesGo(a, y, yi, d, div) }
