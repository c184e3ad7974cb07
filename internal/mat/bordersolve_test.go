package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randSPD builds a well-conditioned SPD matrix B Bᵀ + n·I.
func randSPD(n int, rng *rand.Rand) *Dense {
	b := NewDense(n, n, nil)
	for i := range b.data {
		b.data[i] = rng.NormFloat64()
	}
	a := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b.data[i*n+k] * b.data[j*n+k]
			}
			a.data[i*n+j] = s
		}
		a.data[i*n+i] += float64(n)
	}
	return a
}

func TestForwardSolveVecToMatchesForwardSolveVec(t *testing.T) {
	for _, n := range []int{1, 7, 63, 64, 65, 130} {
		rng := rand.New(rand.NewSource(int64(n)))
		ch, err := NewCholesky(randSPD(n, rng))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := ch.ForwardSolveVec(b)
		// The serial solve must be bitwise-identical to the parallel one.
		dst := make([]float64, n)
		ch.ForwardSolveVecTo(dst, b)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: ForwardSolveVecTo[%d] = %g, ForwardSolveVec = %g", n, i, dst[i], want[i])
			}
		}
		// Aliasing dst onto b is allowed.
		ch.ForwardSolveVecTo(b, b)
		for i := range want {
			if math.Float64bits(b[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: aliased solve diverged at %d", n, i)
			}
		}
	}
}

// The append contract behind gp.ScoringCache: solving each newly bordered
// row (ForwardSolveStrided from row Size−1, after Extend) reproduces, bit
// for bit, a solve from row 0 against the grown factor and
// ForwardSolveVecTo, and the running norm is Dot's. The factor grows from
// 50 rows past both panel boundaries, 64 and 128.
func TestForwardSolveStridedAppendMatchesRebuildBitwise(t *testing.T) {
	const n0, appends = 50, 90
	n := n0 + appends
	rng := rand.New(rand.NewSource(3))
	a := randSPD(n, rng)

	lead := NewDense(n0, n0, nil)
	for i := 0; i < n0; i++ {
		copy(lead.Row(i), a.Row(i)[:n0])
	}
	ch, err := NewCholesky(lead)
	if err != nil {
		t.Fatal(err)
	}

	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	// Incremental: solve the prefix, then extend the factor row by row and
	// solve each new row alone.
	v := append(make([]float64, 0, n), b[:n0]...)
	var sum [1]float64
	ch.ForwardSolveStrided(v, v, 1, 0, sum[:])
	for m := n0; m < n; m++ {
		k := make([]float64, m)
		for j := 0; j < m; j++ {
			k[j] = a.At(m, j)
		}
		l := ch.ForwardSolveVec(k)
		d := math.Sqrt(a.At(m, m) - Dot(l, l))
		ch.Extend(l, d)
		v = append(v, b[m])
		ch.ForwardSolveStrided(v, v, 1, m, sum[:])
	}

	// Rebuild: one solve from row 0 against the final (extended) factor.
	rebuilt := make([]float64, n)
	var rebuiltSum [1]float64
	ch.ForwardSolveStrided(rebuilt, b, 1, 0, rebuiltSum[:])
	want := make([]float64, n)
	ch.ForwardSolveVecTo(want, b)
	for i := range want {
		if math.Float64bits(v[i]) != math.Float64bits(want[i]) || math.Float64bits(rebuilt[i]) != math.Float64bits(want[i]) {
			t.Fatalf("entry %d: incremental %.17g, rebuilt %.17g, ForwardSolveVecTo %.17g (must be bitwise equal)", i, v[i], rebuilt[i], want[i])
		}
	}
	if w := Dot(want, want); math.Float64bits(sum[0]) != math.Float64bits(w) || math.Float64bits(rebuiltSum[0]) != math.Float64bits(w) {
		t.Fatalf("running norms: incremental %.17g, rebuilt %.17g, Dot %.17g (must be bitwise equal)", sum[0], rebuiltSum[0], w)
	}
}

func TestDenseRemoveRow(t *testing.T) {
	build := func() *Dense {
		m := NewDense(4, 2, nil)
		for i := 0; i < 4; i++ {
			m.Set(i, 0, float64(10*i))
			m.Set(i, 1, float64(10*i+1))
		}
		return m
	}
	for drop := 0; drop < 4; drop++ {
		m := build().RemoveRow(drop)
		if m.Rows() != 3 || m.Cols() != 2 {
			t.Fatalf("drop %d: dims %dx%d", drop, m.Rows(), m.Cols())
		}
		want := 0
		for i := 0; i < 3; i++ {
			if want == drop {
				want++
			}
			if m.At(i, 0) != float64(10*want) || m.At(i, 1) != float64(10*want+1) {
				t.Fatalf("drop %d: row %d = %v, want row %d", drop, i, m.Row(i), want)
			}
			want++
		}
	}
	if got := NewDense(1, 3, nil).RemoveRow(0).Rows(); got != 0 {
		t.Fatalf("removing the only row left %d rows", got)
	}
}
