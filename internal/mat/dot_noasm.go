//go:build !amd64

package mat

// Pure-Go fallbacks for architectures without the AVX2+FMA kernels.

const haveFMA = false

func adot(a, b []float64) float64 { return dot4(a, b) }

func adotStrided(a, y []float64, stride int) float64 { return dot4Strided(a, y, stride) }

func axpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += alpha * v
	}
}
