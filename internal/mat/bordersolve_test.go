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

// The flat solve must (a) actually solve L y = b and (b) return Σ y² in
// index order.
func TestForwardSolveFlatTo(t *testing.T) {
	for _, n := range []int{1, 9, 64, 100} {
		rng := rand.New(rand.NewSource(int64(n) + 7))
		ch, err := NewCholesky(randSPD(n, rng))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := ch.ForwardSolveVec(b)
		y := make([]float64, n)
		sum := ch.ForwardSolveFlatTo(y, b)
		for i := range want {
			if math.Abs(y[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d: flat solve[%d] = %g, blocked = %g", n, i, y[i], want[i])
			}
		}
		var wantSum float64
		for _, v := range y {
			wantSum += v * v
		}
		if sum != wantSum {
			t.Fatalf("n=%d: running sum %g, index-order recompute %g", n, sum, wantSum)
		}
	}
}

// The bitwise-replay contract behind gp.ScoringCache: flat-solving against
// the extended factor reproduces, bit for bit, the prefix solve plus one
// BorderSolveStep per appended row — and the running norms agree exactly.
func TestBorderSolveStepMatchesFlatSolveBitwise(t *testing.T) {
	const n0, appends = 50, 20
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

	// Incremental: solve the prefix flat, then extend the factor row by row
	// and apply one border step per row.
	v := make([]float64, n0, n)
	sum := ch.ForwardSolveFlatTo(v, b[:n0])
	for m := n0; m < n; m++ {
		k := make([]float64, m)
		for j := 0; j < m; j++ {
			k[j] = a.At(m, j)
		}
		l := ch.ForwardSolveVec(k)
		d := math.Sqrt(a.At(m, m) - Dot(l, l))
		ch.Extend(l, d)
		vNew := ch.BorderSolveStep(v, b[m])
		v = append(v, vNew)
		sum += vNew * vNew
	}

	// Rebuild: one flat solve against the final (extended) factor.
	flat := make([]float64, n)
	flatSum := ch.ForwardSolveFlatTo(flat, b)
	for i := range flat {
		if flat[i] != v[i] {
			t.Fatalf("flat[%d] = %g, incremental = %g (must be bitwise equal)", i, flat[i], v[i])
		}
	}
	if flatSum != sum {
		t.Fatalf("flat running norm %g, incremental %g (must be bitwise equal)", flatSum, sum)
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
