package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %g want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); !almostEqual(got, 5, 1e-14) {
		t.Fatalf("Norm2 = %g want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %g want 0", got)
	}
}

func TestNorm2Overflow(t *testing.T) {
	big := math.MaxFloat64 / 2
	got := Norm2([]float64{big, big})
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Norm2 overflowed: %g", got)
	}
	want := big * math.Sqrt2
	if !almostEqual(got, want, 1e-12) {
		t.Fatalf("Norm2 = %g want %g", got, want)
	}
}

func TestSqDist(t *testing.T) {
	if got := SqDist([]float64{1, 1}, []float64{4, 5}); got != 25 {
		t.Fatalf("SqDist = %g want 25", got)
	}
}

func TestAxpyTo(t *testing.T) {
	dst := make([]float64, 2)
	AxpyTo(dst, 2, []float64{1, 2}, []float64{10, 20})
	if dst[0] != 12 || dst[1] != 24 {
		t.Fatalf("AxpyTo = %v want [12 24]", dst)
	}
	// Aliased destination.
	y := []float64{1, 1}
	AxpyTo(y, 3, []float64{1, 2}, y)
	if y[0] != 4 || y[1] != 7 {
		t.Fatalf("aliased AxpyTo = %v want [4 7]", y)
	}
}

func TestScaleCopySubAdd(t *testing.T) {
	x := []float64{1, 2}
	ScaleVec(3, x)
	if x[1] != 6 {
		t.Fatalf("ScaleVec = %v", x)
	}
	c := CopyVec(x)
	c[0] = 100
	if x[0] != 3 {
		t.Fatal("CopyVec shares storage")
	}
	s := SubVec([]float64{5, 5}, []float64{2, 3})
	if s[0] != 3 || s[1] != 2 {
		t.Fatalf("SubVec = %v", s)
	}
	a := AddVec([]float64{1, 2}, []float64{3, 4})
	if a[0] != 4 || a[1] != 6 {
		t.Fatalf("AddVec = %v", a)
	}
}

func TestMinMaxVec(t *testing.T) {
	v := []float64{3, -1, 7, 2}
	if mx, i := MaxVec(v); mx != 7 || i != 2 {
		t.Fatalf("MaxVec = %g,%d", mx, i)
	}
	if mn, i := MinVec(v); mn != -1 || i != 1 {
		t.Fatalf("MinVec = %g,%d", mn, i)
	}
}

func TestMinMaxVecEmptyPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"max": func() { MaxVec(nil) },
		"min": func() { MinVec(nil) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestSumVecCompensated(t *testing.T) {
	// Kahan summation keeps 1 visible despite the large cancelling pair.
	v := []float64{1e16, 1, -1e16}
	if got := SumVec(v); got != 1 {
		t.Fatalf("SumVec = %g want 1", got)
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, 2}) {
		t.Fatal("finite slice reported non-finite")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Fatal("NaN not detected")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Fatal("Inf not detected")
	}
}

// Property: Cauchy–Schwarz |a·b| <= |a||b|.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randomVec(rng, n)
		b := randomVec(rng, n)
		return math.Abs(Dot(a, b)) <= Norm2(a)*Norm2(b)*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: SqDist(a,b) == |a-b|².
func TestSqDistNormConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randomVec(rng, n)
		b := randomVec(rng, n)
		d := Norm2(SubVec(a, b))
		return almostEqual(SqDist(a, b), d*d, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
