package mat

import (
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

// lanesSizes cross asmDotMin (16) and cholBlock (64).
var lanesSizes = []int{1, 2, 3, 15, 16, 17, 31, 32, 33, 50, 60, 63, 64, 65, 128, 129, 200}

// testForwardSolveLanes checks the eight-lane sweep and its sums of squares
// against ForwardSolveVecTo and Dot, lane by lane.
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
			ss := ch.ForwardSolveLanes(y)
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

func TestForwardSolveLanesLengthPanics(t *testing.T) {
	ch, err := NewCholesky(randSPD(3, rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ForwardSolveLanes accepted 12 values for a 3x3 factor")
		}
	}()
	ch.ForwardSolveLanes(make([]float64, 4*3))
}

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

// testForwardSolveFlatLanes checks the eight-lane flat solve and its sums
// of squares against ForwardSolveFlatTo, lane by lane, on both sides of
// cholBlock (where it switches from the one-call sweep to per-lane solves)
// and of asmDotMin.
func testForwardSolveFlatLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, n := range []int{1, 2, 3, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128} {
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
					for j := range b[c] {
						b[c][j] *= math.Pow(10, float64(rng.Intn(16)-8))
					}
				}
				for j, v := range b[c] {
					y[8*j+c] = v
				}
			}
			ss := ch.ForwardSolveFlatLanes(y)
			want := make([]float64, n)
			for c := range b {
				sum := ch.ForwardSolveFlatTo(want, b[c])
				for j, w := range want {
					if math.Float64bits(y[8*j+c]) != math.Float64bits(w) {
						t.Fatalf("n=%d trial %d lane %d: y[%d] = %.17g, ForwardSolveFlatTo = %.17g", n, trial, c, j, y[8*j+c], w)
					}
				}
				if math.Float64bits(ss[c]) != math.Float64bits(sum) {
					t.Fatalf("n=%d trial %d lane %d: sum of squares %.17g, flat running sum %.17g", n, trial, c, ss[c], sum)
				}
			}
		}
	}
}

func TestForwardSolveFlatLanesBitwise(t *testing.T) { testForwardSolveFlatLanes(t) }
