package kernel

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"alamr/internal/mat"
)

var kernBenchSizes = []struct {
	name string
	n    int
}{
	{"50", 50},
	{"200", 200},
	{"600", 600},
	{"1920", 1920},
}

const benchDims = 2 // the paper's (log2 p, mx·2^maxlevel) feature space

func benchInputs(n int) *mat.Dense {
	rng := rand.New(rand.NewSource(int64(n)))
	x := mat.NewDense(n, benchDims, nil)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for d := range row {
			row[d] = rng.NormFloat64()
		}
	}
	return x
}

func BenchmarkKernelMatrixRBF(b *testing.B) {
	k := NewRBF(1.2, 0.8)
	for _, bs := range kernBenchSizes {
		if testing.Short() && bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			x := benchInputs(bs.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gram(k, x)
			}
		})
	}
}

func BenchmarkKernelMatrixARD(b *testing.B) {
	k := NewARDRBF([]float64{1.2, 0.7}, 0.8)
	for _, bs := range kernBenchSizes {
		if bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			x := benchInputs(bs.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gram(k, x)
			}
		})
	}
}

func BenchmarkKernelMatrixMatern(b *testing.B) {
	k := NewMatern(2.5, 1.2, 0.8)
	for _, bs := range kernBenchSizes {
		if bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			x := benchInputs(bs.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gram(k, x)
			}
		})
	}
}

func BenchmarkKernelMatrixGrad(b *testing.B) {
	k := NewRBF(1.2, 0.8)
	for _, bs := range kernBenchSizes {
		if bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			x := benchInputs(bs.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GramGrad(k, x)
			}
		})
	}
}

func BenchmarkKernelCross(b *testing.B) {
	k := NewRBF(1.2, 0.8)
	for _, bs := range kernBenchSizes {
		if bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			x := benchInputs(bs.n)
			y := benchInputs(bs.n / 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Cross(k, y, x)
			}
		})
	}
}

// BenchmarkRBFRow times one kernel row against an inducing set of the
// sparse surrogate's sizes: "fused" is RowEval.Eval (four rows per vector
// step where the CPU has them), "scalar" the per-pair expression it
// replays.
func BenchmarkRBFRow(b *testing.B) {
	for _, n := range []int{50, 64, 128} {
		z := benchInputs(n)
		e := NewRowEval(NewRBF(1.2, 0.8), z).(*rbfRowEval)
		x := benchInputs(1).Row(0)
		out := make([]float64, n)
		b.Run(strconv.Itoa(n)+"/fused", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.Eval(x, 0, out)
			}
		})
		b.Run(strconv.Itoa(n)+"/scalar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nx := sqNorm(x)
				for t := range out {
					out[t] = e.amp2 * math.Exp(-sqDistVia(nx, e.norms[t], x, z.Row(t))*e.inv2l2)
				}
			}
		})
	}
}
