package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"alamr/internal/obs"
)

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt(2)]].
	a := NewDense(2, 2, []float64{4, 2, 2, 3})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := ch.L()
	if !almostEqual(l.At(0, 0), 2, 1e-14) ||
		!almostEqual(l.At(1, 0), 1, 1e-14) ||
		!almostEqual(l.At(1, 1), math.Sqrt2, 1e-14) ||
		l.At(0, 1) != 0 {
		t.Fatalf("unexpected factor:\n%v", l)
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = NewCholesky(NewDense(2, 3, nil))
}

func TestCholeskyJitterRecoversSingular(t *testing.T) {
	// Rank-deficient Gram matrix from duplicated rows — the normal condition
	// for datasets with repeated measurements.
	a := NewDense(2, 2, []float64{1, 1, 1, 1})
	ch, err := NewCholeskyJitter(a, 1e-10, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Jitter() == 0 {
		t.Fatal("expected nonzero jitter for singular matrix")
	}
	// Solution should still be finite and approximately solve (A+jI)x=b.
	x := ch.SolveVec([]float64{1, 1})
	if !AllFinite(x) {
		t.Fatalf("solution not finite: %v", x)
	}
}

func TestCholeskyJitterExhausted(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 2, 1})
	// Indefinite matrix: tiny jitter cannot fix eigenvalue -1.
	if _, err := NewCholeskyJitter(a, 1e-12, 1e-9); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskySolveVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSPD(rng, 6)
	xTrue := randomVec(rng, 6)
	b := a.MulVec(xTrue)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.SolveVec(b)
	for i := range x {
		if !almostEqual(x[i], xTrue[i], 1e-8) {
			t.Fatalf("x[%d] = %g want %g", i, x[i], xTrue[i])
		}
	}
}

// Inverse is InverseTo into fresh matrices.
func (c *Cholesky) Inverse() *Dense {
	return c.InverseTo(NewDense(c.n, c.n, nil), NewDense(c.n, c.n, nil))
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSPD(rng, 4)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := ch.Inverse()
	prod := Mul(a, inv)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(prod.At(i, j), want, 1e-8) {
				t.Fatalf("A*A^-1 at %d,%d = %g want %g", i, j, prod.At(i, j), want)
			}
		}
	}
}

func TestCholeskyLogDetIdentity(t *testing.T) {
	ch, err := NewCholesky(Eye(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := ch.LogDet(); !almostEqual(got, 0, 1e-14) {
		t.Fatalf("LogDet(I) = %g want 0", got)
	}
}

func TestCholeskyLogDetDiagonal(t *testing.T) {
	a := NewDense(3, 3, []float64{2, 0, 0, 0, 3, 0, 0, 0, 4})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(24)
	if got := ch.LogDet(); !almostEqual(got, want, 1e-12) {
		t.Fatalf("LogDet = %g want %g", got, want)
	}
}

func TestCholeskyReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		rec := Mul(ch.L(), ch.L().T())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEqual(rec.At(i, j), a.At(i, j), 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: SolveVec returns x with A x = b.
func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randomSPD(rng, n)
		b := randomVec(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := ch.SolveVec(b)
		ax := a.MulVec(x)
		for i := range b {
			if !almostEqual(ax[i], b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: log|A| from Cholesky agrees with the product of eigenvalue
// surrogate computed via the determinant of small matrices (n<=3, cofactor
// expansion).
func TestCholeskyLogDetProperty(t *testing.T) {
	det2 := func(a *Dense) float64 {
		return a.At(0, 0)*a.At(1, 1) - a.At(0, 1)*a.At(1, 0)
	}
	det3 := func(a *Dense) float64 {
		return a.At(0, 0)*(a.At(1, 1)*a.At(2, 2)-a.At(1, 2)*a.At(2, 1)) -
			a.At(0, 1)*(a.At(1, 0)*a.At(2, 2)-a.At(1, 2)*a.At(2, 0)) +
			a.At(0, 2)*(a.At(1, 0)*a.At(2, 1)-a.At(1, 1)*a.At(2, 0))
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(2)
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		var det float64
		if n == 2 {
			det = det2(a)
		} else {
			det = det3(a)
		}
		return almostEqual(ch.LogDet(), math.Log(det), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCholesky100(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	a := randomSPD(rng, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholeskySolve100(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	a := randomSPD(rng, 100)
	ch, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := randomVec(rng, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.SolveVec(rhs)
	}
}

// Property: Rank1Update(u) lands on the factorization of A + u uᵀ.
func TestCholeskyRank1Update(t *testing.T) {
	for _, n := range []int{1, 3, 17, 70} { // 70 crosses the cholBlock boundary
		rng := rand.New(rand.NewSource(int64(n)))
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		u := randomVec(rng, n)
		ch.Rank1Update(append([]float64(nil), u...))

		up := a.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				up.Set(i, j, up.At(i, j)+u[i]*u[j])
			}
		}
		want, err := NewCholesky(up)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if !almostEqual(ch.L().At(i, j), want.L().At(i, j), 1e-8) {
					t.Fatalf("n=%d: L[%d,%d] = %g want %g", n, i, j, ch.L().At(i, j), want.L().At(i, j))
				}
			}
		}
	}
}

// InverseTo writes every element it reads before reading it, so buffers
// left over from another matrix give Inverse's bits.
func TestCholeskyInverseToDirtyBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 5, 63, 64, 65, 130} {
		ch, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		want := ch.Inverse()
		u, dst := NewDense(n, n, nil), NewDense(n, n, nil)
		for i := range u.data {
			u.data[i], dst.data[i] = math.NaN(), rng.NormFloat64()
		}
		for _, w := range []int{1, 8} {
			prev := SetWorkers(w)
			got := ch.InverseTo(u, dst)
			SetWorkers(prev)
			if got != dst {
				t.Fatal("InverseTo did not return its destination")
			}
			for i := range want.data {
				if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
					t.Fatalf("n=%d workers=%d: element %d = %v, Inverse %v", n, w, i, got.data[i], want.data[i])
				}
			}
		}
	}
}

// NewCholeskyJitter counts each escalation step it tries and each final
// failure: none for a positive definite matrix, the steps up to the first
// jitter that factors a rank-deficient Gram matrix, and every step plus one
// failure for a matrix no jitter up to max rescues. The expected step
// counts replay the escalation with newCholesky.
func TestCholeskyJitterCounters(t *testing.T) {
	defer obs.Disable()
	reg := obs.NewRegistry()
	obs.Enable(reg, nil)
	count := func(name string) int64 {
		v, _ := reg.CounterValue(name)
		return v
	}
	// A rank-one Gram matrix of four duplicated feature rows, and the
	// negated identity.
	gram := NewDense(4, 4, nil)
	neg := NewDense(4, 4, nil)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			gram.Set(i, j, 2.5)
		}
		neg.Set(i, i, -1)
	}
	const start, max = 1e-12, 1e-2
	steps := func(a *Dense) (n int64, ok bool) {
		for j := start; j <= max; j *= 10 {
			n++
			if _, err := newCholesky(a, j); err == nil {
				return n, true
			}
		}
		return n, false
	}
	var wantSteps, wantFailed int64
	for _, c := range []struct {
		name string
		a    *Dense
	}{{"identity", Eye(4)}, {"rank-deficient", gram}, {"negative definite", neg}} {
		_, err := NewCholeskyJitter(c.a, start, max)
		if _, perr := newCholesky(c.a, 0); perr != nil {
			n, ok := steps(c.a)
			wantSteps += n
			if !ok {
				wantFailed++
			}
		}
		if (err != nil) != (c.name == "negative definite") {
			t.Fatalf("%s: NewCholeskyJitter error %v", c.name, err)
		}
		if got := count(obs.MetricCholJitterSteps); got != wantSteps {
			t.Fatalf("after the %s matrix: %d jitter steps counted, want %d", c.name, got, wantSteps)
		}
		if got := count(obs.MetricCholJitterFailed); got != wantFailed {
			t.Fatalf("after the %s matrix: %d failures counted, want %d", c.name, got, wantFailed)
		}
	}
	if wantSteps < 2 || wantFailed != 1 {
		t.Fatalf("the matrices exercised %d steps and %d failures, want a rescue after at least one step and one failure", wantSteps, wantFailed)
	}
}
