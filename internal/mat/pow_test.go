package mat

import (
	"math"
	"math/rand"
	"testing"
)

// powBases are the bases TestPowLanesMatchesPow replays: the goodness base
// 10 and a spread of others.
var powBases = []float64{10, 2, math.E, 1.5, 1e3}

// powEdges are exponents at Pow's special cases and the boundaries of its
// steps: ±0, ±0.5, 1, NaN, ±Inf, fractional parts at and on either side
// of 0.5, integers and half-integers, |y| at 2⁵² and 2⁶³ and beyond, and
// values whose results overflow, underflow or go subnormal for some base.
var powEdges = []float64{
	0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, 2, -2, 3, -3, 1.5, -1.5, 2.5, -2.5, 7.5,
	math.NaN(), math.Inf(1), math.Inf(-1),
	math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), -math.Nextafter(0.5, 0), -math.Nextafter(0.5, 1),
	3 + math.Nextafter(0.5, 0), 3.5, 3 + math.Nextafter(0.5, 1), -3 - math.Nextafter(0.5, 1),
	1 << 52, -(1 << 52), 1<<52 + 1, 1 << 53, 1 << 62, 1 << 63, -(1 << 63), 1e300, -1e300,
	5e-324, -5e-324, 1e-17, -1e-17,
	// 10^308, 10^309, 10^−307.5, 10^−320 (subnormal), 10^−330 (zero).
	308, 309, 308.25, -307.5, -308, -320, -323.5, -330,
	// 2^1023, 2^1024, 2^−1022, 2^−1023, 2^−1074, 2^−1075.
	1023, 1023.5, 1024, -1022, -1022.5, -1023, -1074, -1075, -1100,
	1 << 12, 1<<12 + 1, -(1 << 12), 1 << 13, 1 << 20, -(1 << 20),
	// e^709.78 and e^−745.13 sit at exp's own overflow and underflow.
	709.78, 709.79, -745.13, -745.14, 1774.5, -1775.5,
}

// powInputs draws n exponents: random in ±20 and ±700, integers and
// half-integers, and edge values.
func powInputs(rng *rand.Rand, n int) []float64 {
	y := make([]float64, n)
	for i := range y {
		switch rng.Intn(6) {
		case 0:
			y[i] = powEdges[rng.Intn(len(powEdges))]
		case 1:
			y[i] = (rng.Float64() - 0.5) * 1400
		case 2:
			y[i] = float64(rng.Intn(81)-40) / 2
		default:
			y[i] = (rng.Float64() - 0.5) * 40
		}
	}
	return y
}

// checkPowLanes compares PowLanes into a fresh slice and in place against
// math.Pow, bit for bit.
func checkPowLanes(t *testing.T, base float64, y []float64) {
	t.Helper()
	got := make([]float64, len(y))
	PowLanes(got, y, base)
	alias := append([]float64(nil), y...)
	PowLanes(alias, alias, base)
	for i, v := range y {
		want := math.Float64bits(math.Pow(base, v))
		if g := math.Float64bits(got[i]); g != want {
			t.Fatalf("len %d: pow(%v, %v) [y bits %#x] = %v, math.Pow = %v", len(y), base, v, math.Float64bits(v), got[i], math.Pow(base, v))
		}
		if a := math.Float64bits(alias[i]); a != want {
			t.Fatalf("len %d, in place: pow(%v, %v) = %v, math.Pow = %v", len(y), base, v, alias[i], math.Pow(base, v))
		}
	}
}

func testPowLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, base := range powBases {
		// Every length 0–9 at every offset into a longer slice.
		y := powInputs(rng, 24)
		for n := 0; n <= 9; n++ {
			for off := 0; off+n <= len(y); off++ {
				checkPowLanes(t, base, y[off:off+n])
			}
		}
		// Every edge in every lane of an otherwise ordinary group, and all
		// edges in one slice.
		for _, e := range powEdges {
			for lane := 0; lane < 4; lane++ {
				g := []float64{-1.25, 0.75, 3.3, -17.6}
				g[lane] = e
				checkPowLanes(t, base, g)
			}
		}
		checkPowLanes(t, base, powEdges)
		for trial := 0; trial < 50; trial++ {
			checkPowLanes(t, base, powInputs(rng, 4096))
		}
	}
	// Bases Pow answers outright or that make every step special.
	for _, base := range []float64{1, 0, math.Copysign(0, -1), -2, -10, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 0.1, 1e308, math.MaxFloat64} {
		checkPowLanes(t, base, powEdges)
		checkPowLanes(t, base, powInputs(rng, 97))
	}
}

func TestPowLanesMatchesPow(t *testing.T) { testPowLanes(t) }

// TestPowLanesAllocs: PowLanes works on the stack.
func TestPowLanesAllocs(t *testing.T) {
	y := powInputs(rand.New(rand.NewSource(89)), 1000)
	dst := make([]float64, len(y))
	if a := testing.AllocsPerRun(20, func() { PowLanes(dst, y, 10) }); a != 0 {
		t.Fatalf("PowLanes allocates %.1f times per call, want 0", a)
	}
}

// FuzzPowLanes feeds an arbitrary base and arbitrary exponent bit patterns
// through every lane of a group and the tail.
func FuzzPowLanes(f *testing.F) {
	for i, e := range powEdges {
		base := powBases[i%len(powBases)]
		f.Add(math.Float64bits(base), math.Float64bits(e), math.Float64bits(-e/3), math.Float64bits(e+0.5), math.Float64bits(2.25), math.Float64bits(-7.75))
	}
	f.Fuzz(func(t *testing.T, b, p, q, r, s, u uint64) {
		y := []float64{math.Float64frombits(p), math.Float64frombits(q), math.Float64frombits(r), math.Float64frombits(s), math.Float64frombits(u)}
		for _, base := range []float64{math.Float64frombits(b), 10} {
			checkPowLanes(t, base, y)
			checkPowLanes(t, base, y[1:])
		}
	})
}
