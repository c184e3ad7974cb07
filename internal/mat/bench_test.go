package mat

import (
	"math/rand"
	"testing"
)

// Benchmark sizes straddle the parallel threshold and cover the paper's
// workloads: n=50 (early AL iterations), n=200 (mid-trajectory), n=600
// (the Table I campaign size), n=1920 (the full combination space).
var benchSizes = []struct {
	name string
	n    int
}{
	{"50", 50},
	{"200", 200},
	{"600", 600},
	{"1920", 1920},
}

func BenchmarkMul(b *testing.B) {
	for _, bs := range benchSizes {
		if testing.Short() && bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := randomDense(rng, bs.n, bs.n)
			y := randomDense(rng, bs.n, bs.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Mul(x, y)
			}
		})
	}
}

// mulBranchy is the seed implementation of Mul, kept here as the reference
// for the branch-removal micro-benchmark: the `if av == 0` test per inner
// element stalls the pipeline on dense GP matrices where it almost never
// fires.
func mulBranchy(a, b *Dense) *Dense {
	out := NewDense(a.rows, b.cols, nil)
	for i := 0; i < a.rows; i++ {
		ai := a.data[i*a.cols : (i+1)*a.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range ai {
			if av == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range bk {
				oi[j] += av * bv
			}
		}
	}
	return out
}

func BenchmarkMulBranchyRef(b *testing.B) {
	for _, bs := range benchSizes {
		if bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := randomDense(rng, bs.n, bs.n)
			y := randomDense(rng, bs.n, bs.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mulBranchy(x, y)
			}
		})
	}
}

func BenchmarkMulVec(b *testing.B) {
	for _, bs := range benchSizes {
		b.Run(bs.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			m := randomDense(rng, bs.n, bs.n)
			x := randomVec(rng, bs.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulVec(x)
			}
		})
	}
}

func BenchmarkMulVecT(b *testing.B) {
	for _, bs := range benchSizes {
		b.Run(bs.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			m := randomDense(rng, bs.n, bs.n)
			x := randomVec(rng, bs.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulVecT(x)
			}
		})
	}
}

func BenchmarkChol(b *testing.B) {
	for _, bs := range benchSizes {
		if testing.Short() && bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			a := randomSPD(rng, bs.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewCholesky(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCholSolveVec(b *testing.B) {
	for _, bs := range benchSizes {
		b.Run(bs.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			a := randomSPD(rng, bs.n)
			ch, err := NewCholesky(a)
			if err != nil {
				b.Fatal(err)
			}
			rhs := randomVec(rng, bs.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch.SolveVec(rhs)
			}
		})
	}
}

func BenchmarkCholInverse(b *testing.B) {
	for _, bs := range benchSizes {
		if bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			a := randomSPD(rng, bs.n)
			ch, err := NewCholesky(a)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch.Inverse()
			}
		})
	}
}

// BenchmarkForwardSolveLanes times one forward solve of eight right-hand
// sides against the inducing-set factor sizes of the sparse surrogate:
// "lanes" is one ForwardSolveLanes call (solve plus the eight sums of
// squares), "rows" the eight ForwardSolveVecTo and Dot calls it
// replaces.
func BenchmarkForwardSolveLanes(b *testing.B) {
	for _, n := range []int{50, 60, 64, 128} {
		rng := rand.New(rand.NewSource(7))
		ch, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			b.Fatal(err)
		}
		rhs := randomVec(rng, 8*n)
		y := make([]float64, 8*n)
		b.Run(itoa(n)+"/lanes", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(y, rhs)
				ss := ch.ForwardSolveLanes(y)
				sinkFloat += ss[0]
			}
		})
		b.Run(itoa(n)+"/rows", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for c := 0; c < 8; c++ {
					yc := y[c*n : (c+1)*n]
					ch.ForwardSolveVecTo(yc, rhs[c*n:(c+1)*n])
					sinkFloat += Dot(yc, yc)
				}
			}
		})
	}
}
