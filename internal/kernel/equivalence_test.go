package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"alamr/internal/mat"
)

func withWorkers(n int, fn func()) {
	prev := mat.SetWorkers(n)
	defer mat.SetWorkers(prev)
	fn()
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomPoints(rng *rand.Rand, n, d int) *mat.Dense {
	data := make([]float64, n*d)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return mat.NewDense(n, d, data)
}

func eqKernels() []Kernel {
	return []Kernel{
		NewRBF(1.2, 1.1),
		NewARDRBF([]float64{1.1, 0.7, 1.5}, 1.2),
		NewMatern(1.5, 1.3, 1.0),
		NewMatern(2.5, 0.9, 1.1),
	}
}

func TestGramSerialParallelIdentical(t *testing.T) {
	for _, n := range []int{1, 3, 33, 64, 65, 127, 200} {
		rng := rand.New(rand.NewSource(int64(n)))
		x := randomPoints(rng, n, 3)
		for _, k := range eqKernels() {
			var serial, parallel *mat.Dense
			withWorkers(1, func() { serial = Gram(k, x) })
			withWorkers(8, func() { parallel = Gram(k, x) })
			if !bitwiseEqual(serial.RawData(), parallel.RawData()) {
				t.Fatalf("n=%d kernel=%T: parallel Gram differs from serial", n, k)
			}
		}
	}
}

func TestGramGradSerialParallelIdentical(t *testing.T) {
	for _, n := range []int{1, 33, 65, 127} {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		x := randomPoints(rng, n, 3)
		for _, k := range eqKernels() {
			var gS, gP *mat.Dense
			var gradS, gradP []*mat.Dense
			withWorkers(1, func() { gS, gradS = GramGrad(k, x) })
			withWorkers(8, func() { gP, gradP = GramGrad(k, x) })
			if !bitwiseEqual(gS.RawData(), gP.RawData()) {
				t.Fatalf("n=%d kernel=%T: parallel GramGrad value differs", n, k)
			}
			if len(gradS) != len(gradP) {
				t.Fatalf("n=%d kernel=%T: gradient count differs", n, k)
			}
			for h := range gradS {
				if !bitwiseEqual(gradS[h].RawData(), gradP[h].RawData()) {
					t.Fatalf("n=%d kernel=%T: parallel gradient %d differs", n, k, h)
				}
			}
		}
	}
}

func TestCrossSerialParallelIdentical(t *testing.T) {
	for _, n := range []int{1, 33, 127} {
		rng := rand.New(rand.NewSource(int64(n) + 2))
		a := randomPoints(rng, n, 3)
		b := randomPoints(rng, n+5, 3)
		for _, k := range eqKernels() {
			var serial, parallel *mat.Dense
			withWorkers(1, func() { serial = Cross(k, a, b) })
			withWorkers(8, func() { parallel = Cross(k, a, b) })
			if !bitwiseEqual(serial.RawData(), parallel.RawData()) {
				t.Fatalf("n=%d kernel=%T: parallel Cross differs from serial", n, k)
			}
		}
	}
}

// The batch row evaluators use the precomputed-norms identity
// ‖x−y‖² = ‖x‖² + ‖y‖² − 2⟨x,y⟩, so they agree with the pairwise Eval
// only to numerical accuracy — except on the diagonal, which must cancel
// exactly.
func TestRowEvaluatorMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, d := 60, 3
	x := randomPoints(rng, n, d)
	for _, k := range eqKernels() {
		ev := RowEvaluator(k, x)
		row := make([]float64, n)
		for i := 0; i < n; i++ {
			ev(x.Row(i), 0, row)
			for j := 0; j < n; j++ {
				want := k.Eval(x.Row(i), x.Row(j))
				tol := 1e-10 * (1 + want)
				if diff := row[j] - want; diff > tol || diff < -tol {
					t.Fatalf("kernel=%T: row eval (%d,%d) = %g, Eval %g", k, i, j, row[j], want)
				}
			}
		}
	}
}

// GramGrad's rows (the RBF workspace's cached distances, the other
// kernels' gradient row evaluators) use the same precomputed-norms
// identity, so they agree with the pairwise EvalGrad to numerical accuracy.
func TestGradRowEvaluatorMatchesEvalGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n, d := 40, 3
	x := randomPoints(rng, n, d)
	for _, k := range eqKernels() {
		val, grads := GramGrad(k, x)
		nh := k.NumParams()
		if len(grads) != nh {
			t.Fatalf("kernel=%T: %d gradient matrices for %d params", k, len(grads), nh)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				wantV, wantG := k.EvalGrad(x.Row(i), x.Row(j))
				tol := 1e-9
				if diff := val.At(i, j) - wantV; diff > tol || diff < -tol {
					t.Fatalf("kernel=%T: grad-row value (%d,%d) = %g, EvalGrad %g", k, i, j, val.At(i, j), wantV)
				}
				for h := 0; h < nh; h++ {
					if diff := grads[h].At(i, j) - wantG[h]; diff > tol || diff < -tol {
						t.Fatalf("kernel=%T: grad-row d%d (%d,%d) = %g, EvalGrad %g", k, h, i, j, grads[h].At(i, j), wantG[h])
					}
				}
			}
		}
	}
}

func TestGramSerialParallelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		d := 1 + rng.Intn(4)
		x := randomPoints(rng, n, d)
		k := NewRBF(math.Exp(rng.NormFloat64()*0.3), math.Exp(rng.NormFloat64()*0.3))
		var s, p *mat.Dense
		withWorkers(1, func() { s = Gram(k, x) })
		withWorkers(6, func() { p = Gram(k, x) })
		return bitwiseEqual(s.RawData(), p.RawData())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
