package kernel

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"alamr/internal/mat"
)

// linKernel is a minimal custom kernel used to exercise the generic RowEval
// fallback.
type linKernel struct{ c float64 }

func (k *linKernel) Eval(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s + k.c
}
func (k *linKernel) EvalGrad(x, y []float64) (float64, []float64) {
	return k.Eval(x, y), []float64{0}
}
func (k *linKernel) NumParams() int        { return 1 }
func (k *linKernel) Params() []float64     { return []float64{k.c} }
func (k *linKernel) SetParams(p []float64) { k.c = p[0] }
func (k *linKernel) Clone() Kernel         { c := *k; return &c }
func (k *linKernel) String() string        { return "lin" }

func randRows(rng *rand.Rand, n, d int) *mat.Dense {
	x := mat.NewDense(n, d, nil)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	return x
}

// An evaluator grown one Extend at a time must agree bitwise with one built
// fresh over the final matrix — the invariant that lets gp.Append skip the
// O(n·d) norm rebuild and that keeps incrementally maintained scoring
// caches equal to checkpoint-resume rebuilds.
func TestRowEvalExtendMatchesRebuildBitwise(t *testing.T) {
	const d, n0, appends = 3, 11, 25
	kernels := map[string]Kernel{
		"rbf":       NewRBF(0.7, 1.3),
		"ard":       NewARDRBF([]float64{0.5, 1.1, 2.0}, 0.9),
		"matern3/2": NewMatern(1.5, 0.8, 1.1),
		"matern5/2": NewMatern(2.5, 0.8, 1.1),
		"generic":   &linKernel{c: 0.25},
	}
	for name, k := range kernels {
		rng := rand.New(rand.NewSource(17))
		xs := randRows(rng, n0, d)
		grown := NewRowEval(k, xs)
		for a := 0; a < appends; a++ {
			row := make([]float64, d)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			xs = xs.AppendRow(row)
			grown.Extend(xs)
		}
		fresh := NewRowEval(k, xs)
		if g, ok := grown.(*rbfRowEval); ok {
			// The column-major copy behind the fused row grows by
			// appends; it must equal a fresh transpose.
			f := fresh.(*rbfRowEval)
			for i := range f.cols {
				if !bitsEqual(g.cols[i], f.cols[i]) {
					t.Fatalf("%s: grown column %d differs from a fresh copy", name, i)
				}
			}
		}

		probe := make([]float64, d)
		for trial := 0; trial < 5; trial++ {
			for j := range probe {
				probe[j] = rng.NormFloat64()
			}
			n := xs.Rows()
			a := make([]float64, n)
			b := make([]float64, n)
			grown.Eval(probe, 0, a)
			fresh.Eval(probe, 0, b)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: grown[%d] = %g, fresh = %g (must be bitwise equal)", name, i, a[i], b[i])
				}
			}
			// Offsets (the gp.Append border uses from = n−1 windows).
			tail := make([]float64, 1)
			grown.Eval(probe, n-1, tail)
			if tail[0] != b[n-1] {
				t.Fatalf("%s: offset eval %g, full eval %g", name, tail[0], b[n-1])
			}
		}
		// Both must agree with the scalar kernel within roundoff.
		vals := make([]float64, xs.Rows())
		fresh.Eval(probe, 0, vals)
		for i := range vals {
			want := k.Eval(probe, xs.Row(i))
			if diff := vals[i] - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("%s: row eval[%d] = %g, scalar Eval = %g", name, i, vals[i], want)
			}
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// rbfScalar is the per-pair scalar RBF expression the fused row must
// reproduce bit for bit.
func rbfScalar(e *rbfRowEval, x []float64, j int) float64 {
	return e.amp2 * math.Exp(-sqDistVia(sqNorm(x), e.norms[j], x, e.xs.Row(j))*e.inv2l2)
}

// checkRBFRow evaluates every window [from, from+len) of the design and
// compares each value's bits with rbfScalar.
func checkRBFRow(t *testing.T, e *rbfRowEval, x []float64, label string) {
	t.Helper()
	n := e.xs.Rows()
	for from := 0; from < n; from++ {
		for _, l := range []int{n - from, (n - from) / 2, min(n-from, 5), min(n-from, 3)} {
			out := make([]float64, l)
			e.Eval(x, from, out)
			for tt, got := range out {
				if want := rbfScalar(e, x, from+tt); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: from %d len %d row %d: fused %v, scalar %v", label, from, l, from+tt, got, want)
				}
			}
		}
	}
}

func TestRBFRowFusedMatchesScalarBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	newEval := func(ls, amp float64, xs *mat.Dense) *rbfRowEval {
		return NewRowEval(NewRBF(ls, amp), xs).(*rbfRowEval)
	}
	// Random designs in several dimensions.
	for _, d := range []int{1, 2, 3, 5, 8} {
		xs := randRows(rng, 23, d)
		e := newEval(0.3+rng.Float64(), 0.5+rng.Float64(), xs)
		for trial := 0; trial < 4; trial++ {
			checkRBFRow(t, e, randRows(rng, 1, d).Row(0), "random")
		}
		// A probe equal to a design row: r2 = 0 exactly.
		checkRBFRow(t, e, append([]float64(nil), xs.Row(7)...), "coincident")
	}

	// Large coordinates that nearly coincide: (‖x‖²+‖z‖²) − 2⟨x,z⟩ cancels
	// and often rounds below zero, which the clamp maps to +0.
	xs := mat.NewDense(17, 2, nil)
	for j := 0; j < 17; j++ {
		xs.Set(j, 0, 1e8+float64(j%3)*1e-8)
		xs.Set(j, 1, 3+float64(j)*1e-9)
	}
	e := newEval(0.7, 1.3, xs)
	probe := []float64{1e8 + 1e-8, 3}
	negative := 0
	for j := 0; j < 17; j++ {
		var dot float64
		for i, v := range probe {
			dot += v * xs.At(j, i)
		}
		if sqNorm(probe)+e.norms[j]-2*dot < 0 {
			negative++
		}
	}
	if negative == 0 {
		t.Fatal("cancellation probe never drives r2 below zero; the clamp is untested")
	}
	checkRBFRow(t, e, probe, "cancellation")

	// Far rows push exp's argument below −708, so their groups fall back
	// to the scalar expression while their neighbours stay vectorized.
	xs = randRows(rng, 30, 3)
	for _, j := range []int{5, 6, 17, 29} {
		for i := 0; i < 3; i++ {
			xs.Set(j, i, 60+float64(i))
		}
	}
	e = newEval(0.5, 1.1, xs)
	x := randRows(rng, 1, 3).Row(0)
	checkRBFRow(t, e, x, "far")
	if mat.HaveLanes() {
		out := make([]float64, 30)
		if done := mat.RBFRows(out, x, e.cols, 0, e.norms, sqNorm(x), e.inv2l2, e.amp2); done != 4 {
			t.Fatalf("fused row wrote %d rows before the first far group, want 4", done)
		}
	}
	// Non-finite probes send every group to the scalar path.
	checkRBFRow(t, e, []float64{math.NaN(), 0, 1}, "nan")
	checkRBFRow(t, e, []float64{math.Inf(1), 0, 1}, "inf")

	// A grown evaluator: Extend keeps the column-major copy in step.
	xs = randRows(rng, 3, 4)
	e = newEval(0.9, 0.8, xs)
	for a := 0; a < 14; a++ {
		xs = xs.AppendRow(randRows(rng, 1, 4).Row(0))
		e.Extend(xs)
		checkRBFRow(t, e, randRows(rng, 1, 4).Row(0), "grown")
	}
}

// FuzzRBFRow drives the fused row with arbitrary small designs and
// hyperparameters, including non-finite ones.
func FuzzRBFRow(f *testing.F) {
	seed := func(d uint8, logLen, logAmp float64, vals ...float64) {
		buf := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		f.Add(buf, d, logLen, logAmp)
	}
	seed(1, 0, 0, 0.5, 1, 2, 3, 4, 5, 6, 7, 8)
	seed(2, -1, 0.3, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 40, 40, 5, 5)
	seed(3, 2, -1, 1e8, 3, 1, 1e8, 3, 1, 1e8+1e-8, 3, 1, 7, 7, 7, 1e300, 0, 0)
	seed(1, math.Inf(1), 0, 1, 2, 3, 4, 5)
	f.Fuzz(func(t *testing.T, data []byte, d uint8, logLen, logAmp float64) {
		dim := 1 + int(d%4)
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		rows := min(len(vals)/dim-1, 13)
		if rows < 1 {
			return
		}
		xs := mat.NewDense(rows, dim, vals[dim:dim+rows*dim])
		e := NewRowEval(&RBF{logLen: logLen, logAmp: logAmp}, xs).(*rbfRowEval)
		checkRBFRow(t, e, vals[:dim], "fuzz")
	})
}
