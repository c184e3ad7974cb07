package gp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// The LML workspace promises the bits of the evaluation it replaced, not a
// tolerance: every check below compares math.Float64bits against oracleLML.

// oracleLML is the LML evaluation as it stood before the workspace: a fresh
// Gram-gradient assembly (oracleGramGrad) and a fresh Inverse per call, the
// same factorization, solve and trace arithmetic.
func oracleLML(k kernel.Kernel, logNoise float64, x *mat.Dense, y []float64, withNoise bool) (float64, []float64, error) {
	n := x.Rows()
	ky, grads := oracleGramGrad(k, x)
	noise2 := math.Exp(2 * logNoise)
	ky.AddDiag(noise2)
	ch, err := mat.NewCholeskyJitter(ky, 1e-10, 1e-6)
	if err != nil {
		return 0, nil, err
	}
	alpha := ch.SolveVec(y)
	lml := -0.5*mat.Dot(y, alpha) - 0.5*ch.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)
	kinv := ch.InverseTo(mat.NewDense(n, n, nil), mat.NewDense(n, n, nil))
	np := k.NumParams()
	dim := np
	if withNoise {
		dim++
	}
	grad := make([]float64, dim)
	for t := 0; t < np; t++ {
		grad[t] = 0.5 * traceInnerDiff(alpha, kinv, grads[t])
	}
	if withNoise {
		var tr float64
		for i := 0; i < n; i++ {
			tr += alpha[i]*alpha[i] - kinv.At(i, i)
		}
		grad[np] = 0.5 * tr * 2 * noise2
	}
	return lml, grad, nil
}

// oracleGramGrad is the isotropic RBF's Gram-gradient assembly as it stood
// before the workspace: per upper-triangle pair the squared distance from
// the rows' squared norms, one scalar math.Exp, the value and both
// derivatives, then the lower triangles mirrored. Other kernels keep
// kernel.GramGrad's row evaluators, unchanged by the workspace.
func oracleGramGrad(k kernel.Kernel, x *mat.Dense) (*mat.Dense, []*mat.Dense) {
	rbf, ok := k.(*kernel.RBF)
	if !ok {
		return kernel.GramGrad(k, x)
	}
	p := rbf.Params()
	l := math.Exp(p[0])
	invl2 := 1 / (l * l)
	inv2l2 := 0.5 * invl2
	amp2 := math.Exp(2 * p[1])
	n := x.Rows()
	sqNorm := func(v []float64) float64 {
		var s float64
		for _, a := range v {
			s += a * a
		}
		return s
	}
	norms := make([]float64, n)
	for i := range norms {
		norms[i] = sqNorm(x.Row(i))
	}
	g, g0, g1 := mat.NewDense(n, n, nil), mat.NewDense(n, n, nil), mat.NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		xi := x.Row(i)
		nx := sqNorm(xi)
		for j := i; j < n; j++ {
			var dot float64
			for d, v := range xi {
				dot += v * x.At(j, d)
			}
			r2 := nx + norms[j] - 2*dot
			if r2 < 0 {
				r2 = 0
			}
			v := amp2 * math.Exp(-r2*inv2l2)
			g.Set(i, j, v)
			g0.Set(i, j, v*r2*invl2)
			g1.Set(i, j, 2*v)
		}
	}
	for _, m := range []*mat.Dense{g, g0, g1} {
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				m.Set(i, j, m.At(j, i))
			}
		}
	}
	return g, []*mat.Dense{g0, g1}
}

// checkLML evaluates the workspace at one setting and compares it with the
// oracle bit for bit (errors must agree too).
func checkLML(t *testing.T, ws *lmlWorkspace, k kernel.Kernel, logNoise float64, x *mat.Dense, y []float64, withNoise bool, what string) {
	t.Helper()
	got, gotGrad, gotErr := ws.lml(k, logNoise, y, withNoise)
	want, wantGrad, wantErr := oracleLML(k, logNoise, x, y, withNoise)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: workspace error %v, oracle error %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: LML %.17g, oracle %.17g", what, got, want)
	}
	if len(gotGrad) != len(wantGrad) {
		t.Fatalf("%s: %d gradient entries, oracle %d", what, len(gotGrad), len(wantGrad))
	}
	for i := range gotGrad {
		if math.Float64bits(gotGrad[i]) != math.Float64bits(wantGrad[i]) {
			t.Fatalf("%s: grad[%d] %.17g, oracle %.17g", what, i, gotGrad[i], wantGrad[i])
		}
	}
}

// lmlDesign draws n rows in [0,1]^5 with some rows repeated (the
// dataset's repeated measurements) and noisy targets.
func lmlDesign(rng *rand.Rand, n int) (*mat.Dense, []float64) {
	x := mat.NewDense(n, 5, nil)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		if i > 0 && rng.Intn(5) == 0 {
			copy(row, x.Row(rng.Intn(i)))
		} else {
			for d := range row {
				row[d] = rng.Float64()
			}
		}
		y[i] = math.Sin(3*row[0]) + row[1]*row[2] + 0.1*rng.NormFloat64()
	}
	return x, y
}

// lmlThetas are (log ℓ, log σ_f, log σ_n) settings: random ones inside the
// search box, short length scales whose exponents leave ExpLanes's vector
// range [−708, 709], long ones whose near-constant K needs the jitter
// ladder, and non-finite ones.
func lmlThetas(rng *rand.Rand, random int) [][3]float64 {
	nan, inf := math.NaN(), math.Inf(1)
	th := [][3]float64{
		{-4, 0, -2}, {-3.5, 1, -1}, {-400, 0, -1}, {-2, 300, -1}, {-2, -400, -1},
		{5, 0, -20}, {5, 2, -15}, {4, 0, -12},
		{nan, 0, -1}, {0, nan, -1}, {0, 0, nan}, {inf, 0, -1}, {-inf, 0, -1},
		{0, inf, -1}, {0, -inf, -1}, {0, 0, inf}, {0, 0, -inf},
	}
	for i := 0; i < random; i++ {
		th = append(th, [3]float64{10*rng.Float64() - 5, 10*rng.Float64() - 5, 10*rng.Float64() - 5})
	}
	return th
}

var lmlSizes = []int{1, 2, 3, 4, 5, 8, 17, 50, 64, 70, 128, 129, 200}

// One workspace per design serves every setting in turn, so each
// evaluation starts from the previous one's buffers, and the comparison
// runs at one worker, two, and GOMAXPROCS. -short (the race detector's
// run) keeps the edge settings but draws fewer random ones and stops
// below n = 200.
func TestLMLWorkspaceBitwiseOracle(t *testing.T) {
	sizes, random := lmlSizes, 30
	if testing.Short() {
		sizes, random = lmlSizes[:len(lmlSizes)-1], 3
	}
	workers := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		workers = append(workers, p)
	}
	jittered := false
	for _, w := range workers {
		withWorkers(w, func() {
			for _, n := range sizes {
				rng := rand.New(rand.NewSource(int64(100 + n)))
				x, y := lmlDesign(rng, n)
				ws := newLMLWorkspace(x)
				k := kernel.NewRBF(1, 1)
				for _, th := range lmlThetas(rng, random) {
					k.SetParams(th[:2])
					for _, withNoise := range []bool{true, false} {
						checkLML(t, ws, k, th[2], x, y, withNoise, "rbf")
					}
					if w == 1 && n >= 8 && th[0] >= 4 && math.Abs(th[2]) < 100 {
						ky, _ := oracleGramGrad(k, x)
						ky.AddDiag(math.Exp(2 * th[2]))
						if ch, err := mat.NewCholeskyJitter(ky, 1e-10, 1e-6); err == nil && ch.Jitter() > 0 {
							jittered = true
						}
					}
				}
			}
		})
	}
	if !jittered {
		t.Fatal("no setting took the jitter ladder; the near-singular cases test nothing")
	}
}

// Kernels without a workspace fast path go through kernel.GramGrad's row
// evaluators into the workspace's buffers: the same bits as a fresh
// GramGrad.
func TestLMLWorkspaceKernelFallbacks(t *testing.T) {
	kernels := []kernel.Kernel{
		kernel.NewARDRBF([]float64{0.5, 1.1, 2.0, 0.8, 1.3}, 0.9),
		kernel.NewMatern(1.5, 0.8, 1.1),
		kernel.NewMatern(2.5, 0.6, 1.4),
	}
	for _, n := range []int{1, 5, 17, 70} {
		rng := rand.New(rand.NewSource(int64(200 + n)))
		x, y := lmlDesign(rng, n)
		for _, proto := range kernels {
			k := proto.Clone()
			ws := newLMLWorkspace(x)
			p0 := k.Params()
			for trial := 0; trial < 6; trial++ {
				p := make([]float64, len(p0))
				for i := range p {
					p[i] = p0[i] + rng.NormFloat64()
				}
				k.SetParams(p)
				checkLML(t, ws, k, -1+rng.NormFloat64(), x, y, trial%2 == 0, k.String())
			}
		}
	}
}

// FuzzLMLWorkspace drives arbitrary small designs and log-hyperparameters
// through a workspace that has already served another setting, bitwise
// against the oracle.
func FuzzLMLWorkspace(f *testing.F) {
	seed := func(d uint8, logLen, logAmp, logNoise float64, fixed bool, vals ...float64) {
		buf := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		f.Add(buf, d, logLen, logAmp, logNoise, fixed)
	}
	seed(1, 0, 0, -1, false, 0.1, 0.5, 0.9, 0.3, 0.7, 1, 2, 3)
	seed(2, -4, 0.3, -2, true, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 0.5, 0.5, 1, 2)
	seed(3, 5, 0, -20, false, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.9, 0.1, 0.4, 0.3, 0.3, 0.3)
	seed(1, math.Inf(-1), 0, -1, false, 1, 2, 3, 4, 5)
	seed(2, -400, 1, math.NaN(), true, 1, 2, 3, 4, 5, 6, 7, 8)
	f.Fuzz(func(t *testing.T, data []byte, d uint8, logLen, logAmp, logNoise float64, fixed bool) {
		dim := 1 + int(d%3)
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		n := min(len(vals)/(dim+1), 12)
		if n < 1 {
			return
		}
		x := mat.NewDense(n, dim, vals[:n*dim])
		y := vals[n*dim : n*dim+n]
		ws := newLMLWorkspace(x)
		k := kernel.NewRBF(0.7, 1.2)
		ws.lml(k, -1, y, true) // leave the buffers dirty
		k.SetParams([]float64{logLen, logAmp})
		checkLML(t, ws, k, logNoise, x, y, !fixed, "fuzz")
	})
}
