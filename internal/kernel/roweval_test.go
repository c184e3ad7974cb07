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

// sameBitsOrNaN is the RBF kernels' bitwise contract: every non-NaN value
// has the scalar expression's bits, and a NaN value is NaN on both paths.
// A NaN's payload is unspecified: it follows the compiler's operand order
// for commutative SSE operations, which no source-level ordering pins.
func sameBitsOrNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// rbfScalar is the per-pair scalar RBF expression the fused row must
// reproduce bit for bit.
func rbfScalar(e *rbfRowEval, x []float64, j int) float64 {
	return e.amp2 * math.Exp(-sqDistVia(sqNorm(x), e.norms[j], x, e.xs.Row(j))*e.inv2l2)
}

// checkRBFRow evaluates every window [from, from+len) of the design and
// compares each value with rbfScalar under sameBitsOrNaN.
func checkRBFRow(t *testing.T, e *rbfRowEval, x []float64, label string) {
	t.Helper()
	n := e.xs.Rows()
	for from := 0; from < n; from++ {
		for _, l := range []int{n - from, (n - from) / 2, min(n-from, 5), min(n-from, 3)} {
			out := make([]float64, l)
			e.Eval(x, from, out)
			for tt, got := range out {
				if want := rbfScalar(e, x, from+tt); !sameBitsOrNaN(got, want) {
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

// checkRBFLanes evaluates every block of eight consecutive candidate rows
// of xs candidate-major and compares each kernel value with Eval's and
// each μ with mat.Dot of the candidate's kernel row with beta, under
// sameBitsOrNaN.
func checkRBFLanes(t *testing.T, e *rbfRowEval, xs *mat.Dense, beta []float64, label string) {
	t.Helper()
	m := e.xs.Rows()
	w := make([]float64, 8*m)
	xt := make([]float64, 8*xs.Cols())
	k := make([]float64, m)
	for lo := 0; lo+8 <= xs.Rows(); lo++ {
		for i := range w {
			w[i] = math.NaN()
		}
		mu := e.EvalLanes(xs, lo, w, xt, beta)
		for c := range mu {
			e.Eval(xs.Row(lo+c), 0, k)
			for j, want := range k {
				if got := w[8*j+c]; !sameBitsOrNaN(got, want) {
					t.Fatalf("%s: block %d lane %d row %d: candidate-major %v, Eval %v", label, lo, c, j, got, want)
				}
			}
			if want := mat.Dot(k, beta); !sameBitsOrNaN(mu[c], want) {
				t.Fatalf("%s: block %d lane %d: μ %v, Dot %v", label, lo, c, mu[c], want)
			}
		}
	}
}

// randBeta draws weights of mixed magnitude and sign, so that every
// summation order of μ rounds differently.
func randBeta(rng *rand.Rand, m int) []float64 {
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
	return b
}

func TestRBFLanesMatchesEvalBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	newEval := func(ls, amp float64, xs *mat.Dense) *rbfRowEval {
		return NewRowEval(NewRBF(ls, amp), xs).(*rbfRowEval)
	}
	for _, d := range []int{1, 2, 3, 5, 8} {
		for _, m := range []int{1, 4, 7, 23, 70} {
			z := randRows(rng, m, d)
			e := newEval(0.3+rng.Float64(), 0.5+rng.Float64(), z)
			beta := randBeta(rng, m)
			checkRBFLanes(t, e, randRows(rng, 11, d), beta, "random")
			// Candidates equal to design rows (r2 = 0), and all-−0
			// candidates and design rows.
			xs := randRows(rng, 9, d)
			for c := 0; c < 9; c += 2 {
				copy(xs.Row(c), z.Row(c%m))
			}
			for i := range xs.Row(3) {
				xs.Row(3)[i] = math.Copysign(0, -1)
				z.Row(0)[i] = math.Copysign(0, -1)
			}
			e = newEval(0.7, 1.2, z)
			checkRBFLanes(t, e, xs, beta, "coincident")
		}
	}

	// Large coordinates that nearly coincide: the distance cancels and
	// often rounds below zero, which the clamp maps to +0.
	z := mat.NewDense(17, 2, nil)
	for j := 0; j < 17; j++ {
		z.Set(j, 0, 1e8+float64(j%3)*1e-8)
		z.Set(j, 1, 3+float64(j)*1e-9)
	}
	xs := mat.NewDense(10, 2, nil)
	for c := 0; c < 10; c++ {
		xs.Set(c, 0, 1e8+float64(c%4)*1e-8)
		xs.Set(c, 1, 3+float64(c)*1e-9)
	}
	beta := randBeta(rng, 17)
	checkRBFLanes(t, newEval(0.7, 1.3, z), xs, beta, "cancellation")

	// Far design rows push exp's argument below −708 for every lane, so
	// those rows fall back to the scalar expression mid-row while the
	// rest stay vectorized.
	z = randRows(rng, 30, 3)
	for _, j := range []int{5, 6, 17, 29} {
		for i := 0; i < 3; i++ {
			z.Set(j, i, 60+float64(i))
		}
	}
	e := newEval(0.5, 1.1, z)
	beta = randBeta(rng, 30)
	xs = randRows(rng, 12, 3)
	checkRBFLanes(t, e, xs, beta, "far")
	if mat.HaveLanes() {
		var mu [8]float64
		w := make([]float64, 8*30)
		if done := mat.RBFLanes(w, xs.RawData()[:24], make([]float64, 24), z.RawData(), e.norms, beta, 0, e.inv2l2, e.amp2, &mu); done != 5 {
			t.Fatalf("candidate-major rows stopped at %d, want the first far row 5", done)
		}
	}

	// Non-finite candidates send every row to the scalar path; their
	// block neighbours must still match. Non-finite weights reach μ
	// through both paths.
	xs = randRows(rng, 12, 3)
	xs.Set(2, 1, math.NaN())
	xs.Set(9, 0, math.Inf(1))
	xs.Set(10, 2, math.Inf(-1))
	checkRBFLanes(t, e, xs, beta, "non-finite candidates")
	beta[3], beta[20] = math.Inf(1), math.NaN()
	checkRBFLanes(t, e, randRows(rng, 9, 3), beta, "non-finite weights")

	// A grown evaluator: Extend keeps the row-major design and the norms
	// in step.
	z = randRows(rng, 3, 4)
	e = newEval(0.9, 0.8, z)
	for a := 0; a < 14; a++ {
		z = z.AppendRow(randRows(rng, 1, 4).Row(0))
		e.Extend(z)
		checkRBFLanes(t, e, randRows(rng, 8, 4), randBeta(rng, z.Rows()), "grown")
	}
}

// FuzzRBFLanes drives the candidate-major rows with arbitrary small designs,
// candidates, weights and hyperparameters, including non-finite ones.
func FuzzRBFLanes(f *testing.F) {
	seed := func(d, m uint8, logLen, logAmp float64, vals ...float64) {
		buf := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		f.Add(buf, d, m, logLen, logAmp)
	}
	ramp := func(n int, scale float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = scale * float64(i%7-3)
		}
		return v
	}
	seed(1, 5, 0, 0, ramp(40, 0.5)...)
	seed(2, 9, -1, 0.3, ramp(80, 1)...)
	seed(3, 4, 2, -1, append(ramp(60, 1e8), 1e300, math.NaN(), math.Inf(1))...)
	seed(1, 3, math.Inf(1), 0, ramp(30, 2)...)
	f.Fuzz(func(t *testing.T, data []byte, d, m uint8, logLen, logAmp float64) {
		dim := 1 + int(d%4)
		rows := 1 + int(m%13)
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		need := rows*dim + 9*dim + rows
		if len(vals) < need {
			return
		}
		z := mat.NewDense(rows, dim, vals[:rows*dim])
		xs := mat.NewDense(9, dim, vals[rows*dim:rows*dim+9*dim])
		beta := vals[rows*dim+9*dim : need]
		e := NewRowEval(&RBF{logLen: logLen, logAmp: logAmp}, z).(*rbfRowEval)
		checkRBFLanes(t, e, xs, beta, "fuzz")
	})
}

// poolColumns lays a candidate pool out as EvalColumn reads it: the
// slot-major rows, the column-major copy and the squared norms.
func poolColumns(pool *mat.Dense) (rows []float64, cols [][]float64, norms []float64) {
	norms = make([]float64, pool.Rows())
	for s := range norms {
		norms[s] = SqNorm(pool.Row(s))
	}
	return pool.RawData(), columns(pool), norms
}

// checkRBFColumn sweeps every design row's column over every window
// [off, off+len) of the pool and compares each value with the
// per-candidate Eval under sameBitsOrNaN.
func checkRBFColumn(t *testing.T, e *rbfRowEval, pool *mat.Dense, label string) {
	t.Helper()
	rows, cols, norms := poolColumns(pool)
	m := pool.Rows()
	k := make([]float64, 1)
	for j := 0; j < e.xs.Rows(); j++ {
		for off := 0; off < m; off++ {
			for _, l := range []int{m - off, (m - off) / 2, min(m-off, 5), min(m-off, 3)} {
				out := make([]float64, l)
				e.EvalColumn(out, j, rows, cols, norms, off)
				for tt, got := range out {
					e.Eval(pool.Row(off+tt), j, k)
					if !sameBitsOrNaN(got, k[0]) {
						t.Fatalf("%s: design row %d, window %d+%d, candidate %d: column %v, Eval %v", label, j, off, l, off+tt, got, k[0])
					}
				}
			}
		}
	}
}

func TestRBFColumnMatchesEvalBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	newEval := func(ls, amp float64, xs *mat.Dense) *rbfRowEval {
		return NewRowEval(NewRBF(ls, amp), xs).(*rbfRowEval)
	}
	for _, d := range []int{1, 2, 3, 5, 8} {
		z := randRows(rng, 6, d)
		e := newEval(0.3+rng.Float64(), 0.5+rng.Float64(), z)
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 23, 70} {
			pool := randRows(rng, m, d)
			// A candidate equal to a design row (r2 = 0) and an all-−0
			// candidate.
			copy(pool.Row(m/2), z.Row(m%6))
			for i := range pool.Row(m - 1) {
				pool.Row(m - 1)[i] = math.Copysign(0, -1)
			}
			checkRBFColumn(t, e, pool, "random")
		}
	}

	// Large coordinates that nearly coincide: the distance cancels and
	// often rounds below zero, which both paths clamp to +0.
	z := mat.NewDense(5, 2, nil)
	pool := mat.NewDense(17, 2, nil)
	for j := 0; j < 5; j++ {
		z.Set(j, 0, 1e8+float64(j%3)*1e-8)
		z.Set(j, 1, 3+float64(j)*1e-9)
	}
	for s := 0; s < 17; s++ {
		pool.Set(s, 0, 1e8+float64(s%4)*1e-8)
		pool.Set(s, 1, 3+float64(s)*1e-9)
	}
	checkRBFColumn(t, newEval(0.7, 1.3, z), pool, "cancellation")

	// Far candidates push exp's argument below −708, so their groups take
	// the scalar expression mid-sweep while their neighbours stay
	// vectorized.
	z = randRows(rng, 4, 3)
	pool = randRows(rng, 30, 3)
	for _, s := range []int{5, 6, 17, 29} {
		for i := 0; i < 3; i++ {
			pool.Set(s, i, 60+float64(i))
		}
	}
	e := newEval(0.5, 1.1, z)
	checkRBFColumn(t, e, pool, "far")
	if mat.HaveLanes() {
		_, cols, norms := poolColumns(pool)
		out := make([]float64, 30)
		if done := mat.RBFRows(out, z.Row(0), cols, 0, norms, e.norms[0], e.inv2l2, e.amp2); done != 4 {
			t.Fatalf("column sweep wrote %d candidates before the first far group, want 4", done)
		}
	}

	// Non-finite and −0 features, in the pool and in the design.
	pool = randRows(rng, 13, 3)
	pool.Set(2, 1, math.NaN())
	pool.Set(7, 0, math.Inf(1))
	pool.Set(8, 2, math.Inf(-1))
	pool.Set(11, 0, math.Copysign(0, -1))
	checkRBFColumn(t, e, pool, "non-finite candidates")
	z = randRows(rng, 4, 3)
	z.Set(1, 2, math.NaN())
	z.Set(2, 0, math.Inf(-1))
	z.Set(3, 1, math.Copysign(0, -1))
	checkRBFColumn(t, newEval(0.8, 0.9, z), randRows(rng, 11, 3), "non-finite design")

	// A grown evaluator: Extend keeps the design and its norms in step.
	z = randRows(rng, 2, 4)
	e = newEval(0.9, 0.8, z)
	pool = randRows(rng, 9, 4)
	for a := 0; a < 10; a++ {
		z = z.AppendRow(randRows(rng, 1, 4).Row(0))
		e.Extend(z)
		checkRBFColumn(t, e, pool, "grown")
	}
}

// The hoisted prior variance: for every row with finite features Diag has
// the bits of RBF.Eval(x, x), whatever the hyperparameters.
func TestRBFDiagMatchesEvalBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, hp := range [][2]float64{{0, 0}, {-2, 1.5}, {3, -4}, {-400, 0}, {math.Inf(1), 0.2}, {math.Inf(-1), 0}, {0, math.Inf(1)}, {math.NaN(), 0}} {
		k := &RBF{logLen: hp[0], logAmp: hp[1]}
		e := NewRowEval(k, randRows(rng, 3, 2)).(*rbfRowEval)
		for _, x := range [][]float64{{0, 0}, {1e300, -1e300}, {math.Copysign(0, -1), 5e-324}, randRows(rng, 1, 2).Row(0)} {
			if got, want := e.Diag(), k.Eval(x, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("log hyperparameters %v, row %v: Diag %v, Eval(x, x) %v", hp, x, got, want)
			}
		}
	}
}

// FuzzRBFColumn drives the column sweep with an arbitrary small pool and
// design and arbitrary log-hyperparameters, non-finite ones included: every
// value must equal the per-candidate Eval under sameBitsOrNaN (NaN features
// with different payloads reach a NaN whose payload the two paths need not
// share; testdata/fuzz holds such an input).
func FuzzRBFColumn(f *testing.F) {
	seed := func(d, n uint8, logLen, logAmp float64, vals ...float64) {
		buf := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		f.Add(buf, d, n, logLen, logAmp)
	}
	ramp := func(n int, scale float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = scale * float64(i%7-3)
		}
		return v
	}
	seed(1, 3, 0, 0, ramp(20, 0.5)...)
	seed(2, 2, -1, 0.3, ramp(40, 1)...)
	seed(3, 1, 2, -1, append(ramp(45, 1e8), 1e300, math.NaN(), math.Inf(1))...)
	seed(1, 4, math.Inf(1), 0, ramp(16, 2)...)
	seed(2, 2, -3, 0, append(ramp(8, 1), 60, 61, 60, 61, 60, 61, 60, 61, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)...)
	f.Fuzz(func(t *testing.T, data []byte, d, n uint8, logLen, logAmp float64) {
		dim := 1 + int(d%4)
		rows := 1 + int(n%6)
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		m := min(len(vals)/dim-rows, 17)
		if m < 1 {
			return
		}
		z := mat.NewDense(rows, dim, vals[:rows*dim])
		pool := mat.NewDense(m, dim, vals[rows*dim:(rows+m)*dim])
		e := NewRowEval(&RBF{logLen: logLen, logAmp: logAmp}, z).(*rbfRowEval)
		checkRBFColumn(t, e, pool, "fuzz")
	})
}
