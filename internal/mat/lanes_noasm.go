//go:build !amd64

package mat

// Portable forms of the lane kernels: no vector groups, so every value
// comes from the scalar code.

func expGroups(dst, x []float64) int { return 0 }

func rbfGroups(out, x []float64, cols [][]float64, off int, norms []float64, nx, inv2l2, amp2 float64) int {
	return 0
}

func rbfLaneRows(w, x, xt, z, norms, beta []float64, from int, inv2l2, amp2 float64, mu *[8]float64) int {
	return from
}

func dotStridedBlocks(out, a, y []float64, stride int) int { return 0 }

func solveStridedBlocks(l []float64, from, n int, y, b []float64, stride int, ss []float64) int {
	return 0
}
