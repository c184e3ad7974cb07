package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= tol*scale
}

func TestNewDenseZero(t *testing.T) {
	m := NewDense(3, 4, nil)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("zero matrix has nonzero at %d,%d", i, j)
			}
		}
	}
}

func TestNewDensePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"zero rows", func() { NewDense(0, 3, nil) }},
		{"negative cols", func() { NewDense(3, -1, nil) }},
		{"bad data len", func() { NewDense(2, 2, make([]float64, 3)) }},
		{"at out of range", func() { NewDense(2, 2, nil).At(2, 0) }},
		{"set out of range", func() { NewDense(2, 2, nil).Set(0, 2, 1) }},
		{"row out of range", func() { NewDense(2, 2, nil).Row(5) }},
		{"trace non-square", func() { NewDense(2, 3, nil).Trace() }},
		{"adddiag non-square", func() { NewDense(2, 3, nil).AddDiag(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewDense(2, 3, nil)
	m.Set(1, 2, 42.5)
	if got := m.At(1, 2); got != 42.5 {
		t.Fatalf("At(1,2) = %g want 42.5", got)
	}
	if got := m.Row(1)[2]; got != 42.5 {
		t.Fatalf("Row(1)[2] = %g want 42.5", got)
	}
}

func TestTranspose(t *testing.T) {
	m := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	r, c := tr.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("T dims = %d,%d want 3,2", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 4, 4)
	got := Mul(a, Eye(4))
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !almostEqual(got.At(i, j), a.At(i, j), 1e-14) {
				t.Fatalf("A*I != A at %d,%d", i, j)
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDense(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := Mul(a, b)
	want := NewDense(2, 2, []float64{58, 64, 139, 154})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("Mul at %d,%d = %g want %g", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestMulVecAgainstMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 5, 3)
	x := randomVec(rng, 3)
	xm := NewDense(3, 1, CopyVec(x))
	want := Mul(a, xm)
	got := a.MulVec(x)
	for i := 0; i < 5; i++ {
		if !almostEqual(got[i], want.At(i, 0), 1e-13) {
			t.Fatalf("MulVec[%d] = %g want %g", i, got[i], want.At(i, 0))
		}
	}
}

func TestMulVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDense(rng, 5, 3)
	x := randomVec(rng, 5)
	want := a.T().MulVec(x)
	got := a.MulVecT(x)
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-13) {
			t.Fatalf("MulVecT[%d] = %g want %g", i, got[i], want[i])
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 3, 4})
	b := NewDense(2, 2, []float64{5, 6, 7, 8})
	sum := NewDense(2, 2, nil)
	sum.Add(a, b)
	if sum.At(1, 1) != 12 {
		t.Fatalf("Add = %g want 12", sum.At(1, 1))
	}
	diff := NewDense(2, 2, nil)
	diff.Sub(b, a)
	if diff.At(0, 0) != 4 {
		t.Fatalf("Sub = %g want 4", diff.At(0, 0))
	}
	diff.Scale(0.5)
	if diff.At(0, 1) != 2 {
		t.Fatalf("Scale = %g want 2", diff.At(0, 1))
	}
}

func TestAddDiagAndTrace(t *testing.T) {
	m := Eye(3)
	m.AddDiag(2)
	if got := m.Trace(); got != 9 {
		t.Fatalf("Trace = %g want 9", got)
	}
}

func TestSymmetrize(t *testing.T) {
	m := NewDense(2, 2, []float64{1, 2, 4, 3})
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Fatalf("Symmetrize off-diagonals = %g,%g want 3,3", m.At(0, 1), m.At(1, 0))
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewDense(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatalf("Clone shares storage with original")
	}
}

func TestStringContainsValues(t *testing.T) {
	m := NewDense(1, 2, []float64{1.5, -2})
	s := m.String()
	if s == "" {
		t.Fatal("String is empty")
	}
}

// Property: (Aᵀ)ᵀ = A.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a := randomDense(rng, r, c)
		tt := a.T().T()
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				if a.At(i, j) != tt.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication is associative (up to roundoff).
func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := randomDense(rng, n, n)
		b := randomDense(rng, n, n)
		c := randomDense(rng, n, n)
		l := Mul(Mul(a, b), c)
		r := Mul(a, Mul(b, c))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEqual(l.At(i, j), r.At(i, j), 1e-10) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (AB)ᵀ = BᵀAᵀ.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(4)
		k := 1 + rng.Intn(4)
		n := 1 + rng.Intn(4)
		a := randomDense(rng, m, k)
		b := randomDense(rng, k, n)
		l := Mul(a, b).T()
		r := Mul(b.T(), a.T())
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if !almostEqual(l.At(i, j), r.At(i, j), 1e-11) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c, nil)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// randomSPD builds a random symmetric positive-definite matrix A = BBᵀ + εI.
func randomSPD(rng *rand.Rand, n int) *Dense {
	b := randomDense(rng, n, n)
	a := Mul(b, b.T())
	a.AddDiag(1e-3 * float64(n))
	a.Symmetrize()
	return a
}
