package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The lane kernels promise bits, not tolerances: every check below
// compares math.Float64bits against the scalar code kept in the tree.

// expEdges are arguments at and around the boundaries of math.Exp's
// branches and of the vector fast range [−708, 709].
var expEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1e-300, -1e-300, 5e-324, -5e-324,
	-708, math.Nextafter(-708, 0), math.Nextafter(-708, -1000), -708.4, -709, -709.1,
	709, math.Nextafter(709, 0), math.Nextafter(709, 1000), 709.78, 7.09782712893384e+02, 710,
	-745, -745.13, -745.2, -746, -1000, 1000,
	math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN(),
	math.Ln2 / 2, -math.Ln2 / 2, 3 * math.Ln2 / 2, -3 * math.Ln2 / 2,
}

// expInputs draws n arguments: mostly inside the fast range, with edge
// values and raw bit patterns mixed in so that fallback groups occur.
func expInputs(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch rng.Intn(8) {
		case 0:
			x[i] = expEdges[rng.Intn(len(expEdges))]
		case 1:
			x[i] = math.Float64frombits(rng.Uint64())
		case 2:
			x[i] = -rng.ExpFloat64()
		default:
			x[i] = (rng.Float64() - 0.6) * 1400
		}
	}
	return x
}

func checkExpLanes(t *testing.T, x []float64) {
	t.Helper()
	got := make([]float64, len(x))
	ExpLanes(got, x)
	for i, v := range x {
		if want := math.Exp(v); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("len %d: exp(%v) [bits %#x] = %v, math.Exp = %v", len(x), v, math.Float64bits(v), got[i], want)
		}
	}
}

func testExpLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for n := 0; n <= 37; n++ {
		for trial := 0; trial < 40; trial++ {
			checkExpLanes(t, expInputs(rng, n))
		}
	}
	// Every edge value in every lane position of an otherwise in-range
	// group, and all edge values in one slice.
	for _, e := range expEdges {
		for lane := 0; lane < 4; lane++ {
			x := []float64{-1.5, 0.25, 3, -700}
			x[lane] = e
			checkExpLanes(t, x)
		}
	}
	checkExpLanes(t, expEdges)
	// A dense sweep of the fast range, where the vector path must run.
	x := make([]float64, 1<<16)
	for i := range x {
		x[i] = -708 + 1417*rng.Float64()
	}
	x[0], x[1], x[2], x[3] = -708, 709, 0, math.Copysign(0, -1)
	checkExpLanes(t, x)
	if haveFMA {
		if done := expGroups(make([]float64, len(x)), x); done != len(x) {
			t.Fatalf("vector exp stopped at %d of %d in-range arguments", done, len(x))
		}
	}
}

func TestExpLanesBitwise(t *testing.T) { testExpLanes(t) }

// FuzzExpLanes feeds arbitrary bit patterns through every lane of a group
// and the scalar tail.
func FuzzExpLanes(f *testing.F) {
	for _, e := range expEdges {
		f.Add(math.Float64bits(e), math.Float64bits(-e/2), math.Float64bits(e/3), math.Float64bits(1), math.Float64bits(-700))
	}
	f.Fuzz(func(t *testing.T, a, b, c, d, e uint64) {
		x := []float64{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c), math.Float64frombits(d), math.Float64frombits(e)}
		checkExpLanes(t, x)
		checkExpLanes(t, x[1:])
	})
}

// stridedVectors lays m vectors of length n out entry-major at stride
// (element j of vector t at y[j·stride+t]), with magnitudes spread so that
// every summation order rounds differently, and returns the layout and the
// vectors gathered. The slack between m and stride holds NaNs, which no
// result may read.
func stridedVectors(rng *rand.Rand, n, m, stride int) (y []float64, vecs [][]float64) {
	y = make([]float64, n*stride)
	for i := range y {
		y[i] = math.NaN()
	}
	vecs = make([][]float64, m)
	for t := range vecs {
		vecs[t] = make([]float64, n)
		for j := range vecs[t] {
			v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(16)-8))
			vecs[t][j], y[j*stride+t] = v, v
		}
	}
	return y, vecs
}

// sameBitsOrNaN is the strided kernels' bitwise contract: every non-NaN
// result has the scalar code's bits, and a NaN result is NaN on both paths
// (its payload follows the operand order of commutative SSE operations,
// which neither path pins).
func sameBitsOrNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// testDotStrided checks DotStrided against DotBlocked of each gathered
// vector for every length 0..40 (both sides of adot's switch at 16) and
// every vector count 0..17 (every count mod 8, the tail included).
func testDotStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for n := 0; n <= 40; n++ {
		for m := 0; m <= 17; m++ {
			stride := m + rng.Intn(3)
			a := randomVec(rng, n)
			y, vecs := stridedVectors(rng, n, m, stride)
			out := make([]float64, m)
			DotStrided(out, a, y, stride)
			for c, v := range vecs {
				if want := DotBlocked(v, a); math.Float64bits(out[c]) != math.Float64bits(want) {
					t.Fatalf("n=%d, %d vectors, stride %d, vector %d: %.17g, DotBlocked %.17g", n, m, stride, c, out[c], want)
				}
			}
		}
	}
}

func TestDotStridedBitwise(t *testing.T) { testDotStrided(t) }

// lanesSizes cross asmDotMin (16) and the cholBlock panel boundaries (64,
// 128).
var lanesSizes = []int{1, 2, 3, 15, 16, 17, 31, 32, 33, 50, 60, 63, 64, 65, 127, 128, 129, 140, 200}

// testForwardSolveStrided checks the strided solve against the scalar code
// for every size in lanesSizes and vector counts 0..17 (every count mod 8,
// the tail included): the whole solve from row 0, eight vectors in place
// at stride 8 (the sparse surrogate's layout) and every other count out of
// place, against ForwardSolveVecTo and Dot per vector; then the last row
// alone, in place over the solved prefix, against the last entry of that
// solve and the running-norm update after it.
func testForwardSolveStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, n := range lanesSizes {
		ch, err := NewCholesky(randSPD(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n)
		for m := 0; m <= 17; m++ {
			stride := m + rng.Intn(3)
			if m == 8 {
				stride = 8
			}
			b, vecs := stridedVectors(rng, n, m, stride)
			y := make([]float64, len(b))
			if m == 8 {
				copy(y, b)
				b = y
			}
			ss := make([]float64, m)
			ch.ForwardSolveStrided(y, b, stride, 0, ss)
			for c, v := range vecs {
				ch.ForwardSolveVecTo(want, v)
				for j, w := range want {
					if got := y[j*stride+c]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("n=%d, %d vectors, vector %d: y[%d] = %.17g, ForwardSolveVecTo %.17g", n, m, c, j, got, w)
					}
				}
				if w := Dot(want, want); math.Float64bits(ss[c]) != math.Float64bits(w) {
					t.Fatalf("n=%d, %d vectors, vector %d: sum of squares %.17g, Dot %.17g", n, m, c, ss[c], w)
				}
			}

			for c, v := range vecs {
				y[(n-1)*stride+c] = v[n-1]
				ss[c] = rng.Float64()
			}
			prev := append([]float64(nil), ss...)
			ch.ForwardSolveStrided(y, y, stride, n-1, ss)
			for c, v := range vecs {
				ch.ForwardSolveVecTo(want, v)
				if got := y[(n-1)*stride+c]; math.Float64bits(got) != math.Float64bits(want[n-1]) {
					t.Fatalf("n=%d, %d vectors, vector %d: last row %.17g, ForwardSolveVecTo %.17g", n, m, c, got, want[n-1])
				}
				if w := prev[c] + want[n-1]*want[n-1]; math.Float64bits(ss[c]) != math.Float64bits(w) {
					t.Fatalf("n=%d, %d vectors, vector %d: running norm %.17g, want %.17g", n, m, c, ss[c], w)
				}
			}
		}
	}
}

func TestForwardSolveStridedBitwise(t *testing.T) { testForwardSolveStrided(t) }

// testForwardSolveLanes checks the eight-lane layout the sparse surrogate
// solves in (eight vectors entry-major at stride 8, solved in place from
// row 0) and its sums of squares against ForwardSolveVecTo and Dot, lane by
// lane, three factors per size, the last with mixed magnitudes.
func testForwardSolveLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, n := range lanesSizes {
		for trial := 0; trial < 3; trial++ {
			ch, err := NewCholesky(randSPD(n, rng))
			if err != nil {
				t.Fatal(err)
			}
			b := make([][]float64, 8)
			y := make([]float64, 8*n)
			for c := range b {
				b[c] = randomVec(rng, n)
				if trial == 2 {
					// Mixed magnitudes make every summation order
					// round differently.
					for j := range b[c] {
						b[c][j] *= math.Pow(10, float64(rng.Intn(16)-8))
					}
				}
				for j, v := range b[c] {
					y[8*j+c] = v
				}
			}
			ss := make([]float64, 8)
			ch.ForwardSolveStrided(y, y, 8, 0, ss)
			want := make([]float64, n)
			for c := range b {
				ch.ForwardSolveVecTo(want, b[c])
				for j, w := range want {
					if math.Float64bits(y[8*j+c]) != math.Float64bits(w) {
						t.Fatalf("n=%d trial %d lane %d: y[%d] = %.17g, ForwardSolveVecTo = %.17g", n, trial, c, j, y[8*j+c], w)
					}
				}
				if w := Dot(want, want); math.Float64bits(ss[c]) != math.Float64bits(w) {
					t.Fatalf("n=%d trial %d lane %d: sum of squares %.17g, Dot = %.17g", n, trial, c, ss[c], w)
				}
			}
		}
	}
}

func TestForwardSolveLanesBitwise(t *testing.T) { testForwardSolveLanes(t) }

func TestForwardSolveStridedShapePanics(t *testing.T) {
	ch, err := NewCholesky(randSPD(3, rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ForwardSolveStrided accepted 12 values for eight vectors over a 3x3 factor")
		}
	}()
	y := make([]float64, 4*3)
	ch.ForwardSolveStrided(y, y, 8, 0, make([]float64, 8))
}

// FuzzStridedLanes drives DotStrided and the strided solve with arbitrary
// bit patterns, non-finite ones included, on a fixed factor per size:
// every result must be the scalar code's under sameBitsOrNaN.
func FuzzStridedLanes(f *testing.F) {
	seed := func(n, m uint8, vals ...float64) {
		buf := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		f.Add(buf, n, m)
	}
	ramp := func(k int, scale float64) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = scale * float64(i%7-3)
		}
		return v
	}
	seed(3, 9, ramp(60, 0.5)...)
	seed(17, 8, ramp(200, 1e-3)...)
	seed(20, 11, append(ramp(300, 1e8), 1e300, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1))...)
	long := ramp(1400, 0.25) // n = 140: rows in all three panels
	long[700], long[1390] = math.NaN(), math.Inf(-1)
	seed(139, 9, long...)
	// The factor depends on n alone; building it is O(n³), so each fuzzing
	// process keeps the ones it has built (the target runs sequentially
	// within a process).
	factors := map[int]*Cholesky{}
	f.Fuzz(func(t *testing.T, data []byte, nb, mb uint8) {
		n, m := 1+int(nb%140), int(mb%18)
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		if len(vals) < n*(m+1) {
			return
		}
		a, b := vals[:n], vals[n:n*(m+1)]
		ch := factors[n]
		if ch == nil {
			var err error
			if ch, err = NewCholesky(randSPD(n, rand.New(rand.NewSource(int64(n))))); err != nil {
				t.Fatal(err)
			}
			factors[n] = ch
		}
		vec := func(t int) []float64 {
			v := make([]float64, n)
			for j := range v {
				v[j] = b[j*m+t]
			}
			return v
		}
		out := make([]float64, m)
		DotStrided(out, a, b, m)
		y := make([]float64, len(b))
		ss := make([]float64, m)
		ch.ForwardSolveStrided(y, b, m, 0, ss)
		want := make([]float64, n)
		for c := 0; c < m; c++ {
			v := vec(c)
			if w := DotBlocked(v, a); !sameBitsOrNaN(out[c], w) {
				t.Fatalf("n=%d, %d vectors, vector %d: dot %v, DotBlocked %v", n, m, c, out[c], w)
			}
			ch.ForwardSolveVecTo(want, v)
			for j, w := range want {
				if !sameBitsOrNaN(y[j*m+c], w) {
					t.Fatalf("n=%d, %d vectors, vector %d: y[%d] = %v, ForwardSolveVecTo %v", n, m, c, j, y[j*m+c], w)
				}
			}
			if w := Dot(want, want); !sameBitsOrNaN(ss[c], w) {
				t.Fatalf("n=%d, %d vectors, vector %d: sum of squares %v, Dot %v", n, m, c, ss[c], w)
			}
		}
	})
}
