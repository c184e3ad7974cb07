package kernel

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"alamr/internal/mat"
)

// oracleRBFGramGrad is the RBF Gram-gradient assembly the workspace
// replaced: per upper-triangle pair, sqDistVia from fresh squared norms,
// one scalar math.Exp, then the lower triangles mirrored.
func oracleRBFGramGrad(k *RBF, x *mat.Dense) []*mat.Dense {
	l := math.Exp(k.logLen)
	invl2 := 1 / (l * l)
	inv2l2 := 0.5 * invl2
	amp2 := math.Exp(2 * k.logAmp)
	n := x.Rows()
	norms := rowSqNorms(x)
	out := []*mat.Dense{mat.NewDense(n, n, nil), mat.NewDense(n, n, nil), mat.NewDense(n, n, nil)}
	for i := 0; i < n; i++ {
		nx := sqNorm(x.Row(i))
		for j := i; j < n; j++ {
			r2 := sqDistVia(nx, norms[j], x.Row(i), x.Row(j))
			v := amp2 * math.Exp(-r2*inv2l2)
			out[0].Set(i, j, v)
			out[1].Set(i, j, v*r2*invl2)
			out[2].Set(i, j, 2*v)
		}
	}
	for _, m := range out {
		mirrorLower(m)
	}
	return out
}

func sameBits(t *testing.T, got, want *mat.Dense, what string) {
	t.Helper()
	g, w := got.RawData(), want.RawData()
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: element %d = %.17g, oracle %.17g", what, i, g[i], w[i])
		}
	}
}

// One workspace serves a sequence of hyperparameters, including length
// scales whose exponents leave ExpLanes's vector range and non-finite
// ones; every fill must carry the oracle's bits, at any worker count.
func TestGradWorkspaceRBFBitwise(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	params := [][2]float64{
		{0, 0}, {-4, 0.5}, {-3.2, -1}, {5, 2}, {-400, 0}, {-2, 300}, {-2, -400},
		{nan, 0}, {0, nan}, {inf, 0}, {-inf, 0}, {0, inf}, {0, -inf},
	}
	workers := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		workers = append(workers, p)
	}
	for _, w := range workers {
		withWorkers(w, func() {
			for _, n := range []int{1, 2, 3, 4, 5, 8, 17, 50, 64, 70, 128, 129, 200} {
				rng := rand.New(rand.NewSource(int64(n)))
				x := randomPoints(rng, n, 5)
				if n > 3 {
					copy(x.Row(n-1), x.Row(1)) // a repeated row
				}
				ws := NewGradWorkspace(x)
				for trial := 0; trial < len(params)+8; trial++ {
					p := []float64{rng.NormFloat64(), rng.NormFloat64()}
					if trial < len(params) {
						p = params[trial][:]
					}
					k := &RBF{logLen: p[0], logAmp: p[1]}
					val, grads := ws.GramGrad(k)
					want := oracleRBFGramGrad(k, x)
					sameBits(t, val, want[0], "K")
					sameBits(t, grads[0], want[1], "dK/dlogℓ")
					sameBits(t, grads[1], want[2], "dK/dlogσ")
				}
			}
		})
	}
}

// The other kernels fill the workspace's buffers through their gradient
// row evaluators: a reused workspace gives the bits of a fresh GramGrad.
func TestGradWorkspaceFallbacksBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randomPoints(rng, 33, 3)
	for _, k := range append(eqKernels()[1:], &linKernel{c: 0.25}) {
		ws := NewGradWorkspace(x)
		for trial := 0; trial < 3; trial++ {
			p := k.Params()
			for i := range p {
				p[i] += 0.3 * rng.NormFloat64()
			}
			k.SetParams(p)
			val, grads := ws.GramGrad(k)
			wantVal, wantGrads := GramGrad(k, x)
			sameBits(t, val, wantVal, k.String())
			for h := range wantGrads {
				sameBits(t, grads[h], wantGrads[h], k.String())
			}
		}
	}
}
