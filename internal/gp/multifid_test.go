package gp

import (
	"math"
	"math/rand"
	"testing"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// multiFidData synthesizes a correlated two-level dataset over a 2-dim
// point space with fidelity dial in column 2 of a 3-dim feature row:
// f_hi = 1.8·f_lo + δ with a smooth discrepancy.
func multiFidData(rng *rand.Rand, nLo, nHi int, ladder []float64) (*mat.Dense, []float64) {
	n := nLo + nHi
	x := mat.NewDense(n, 3, nil)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		lo := math.Sin(5*a) + b*b
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if i < nLo {
			x.Set(i, 2, ladder[0])
			y[i] = lo
		} else {
			x.Set(i, 2, ladder[len(ladder)-1])
			y[i] = 1.8*lo + 0.3*math.Cos(3*a) - 0.2*b
		}
	}
	return x, y
}

func stripCol(x *mat.Dense, dim int) *mat.Dense {
	out := mat.NewDense(x.Rows(), x.Cols()-1, nil)
	for i := 0; i < x.Rows(); i++ {
		row := x.Row(i)
		dst := out.Row(i)
		copy(dst[:dim], row[:dim])
		copy(dst[dim:], row[dim+1:])
	}
	return out
}

func newTestMultiFid(t *testing.T, ladder, rho []float64, cfg Config) *MultiFid {
	t.Helper()
	m, err := NewMultiFid(kernel.NewRBF(0.5, 1), cfg, MultiFidConfig{Dim: 2, Ladder: ladder, Rho: rho})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMultiFidConfigValidation(t *testing.T) {
	k := kernel.NewRBF(0.5, 1)
	cases := []MultiFidConfig{
		{Dim: 2},                              // empty ladder
		{Dim: 2, Ladder: []float64{0.5, 0.5}}, // not ascending
		{Dim: 2, Ladder: []float64{0, 1}, Rho: []float64{1}}, // rho length
		{Dim: -1, Ladder: []float64{0, 1}},                   // bad column
	}
	for i, mf := range cases {
		if _, err := NewMultiFid(k, Config{}, mf); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, mf)
		}
	}
}

func TestMultiFidRejectsOffLadderRows(t *testing.T) {
	m := newTestMultiFid(t, []float64{0, 1}, nil, Config{NoOptimize: true})
	x := mat.NewDense(2, 3, []float64{0.1, 0.2, 0, 0.3, 0.4, 0.5})
	if err := m.Fit(x, []float64{1, 2}); err == nil {
		t.Fatal("off-ladder dial accepted")
	}
}

func TestMultiFidRequiresBaseLevel(t *testing.T) {
	m := newTestMultiFid(t, []float64{0, 1}, nil, Config{NoOptimize: true})
	x := mat.NewDense(2, 3, []float64{0.1, 0.2, 1, 0.3, 0.4, 1})
	if err := m.Fit(x, []float64{1, 2}); err == nil {
		t.Fatal("fit with empty base level accepted")
	}
}

// TestMultiFidOneLevelBitwiseExactGP is the degenerate-ladder half of the
// single-fidelity equivalence pin: a MultiFid with a one-rung ladder IS the
// exact GP on the stripped features — identical fit, identical predictions,
// identical hyperparameters, bit for bit.
func TestMultiFidOneLevelBitwiseExactGP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := multiFidData(rng, 40, 0, []float64{0.25})
	cfg := Config{Noise: 0.05, Seed: 11, NormalizeY: true}

	m := newTestMultiFid(t, []float64{0.25}, nil, cfg)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	ref := New(kernel.NewRBF(0.5, 1), cfg)
	if err := ref.Fit(stripCol(x, 2), y); err != nil {
		t.Fatal(err)
	}

	xt, _ := multiFidData(rand.New(rand.NewSource(8)), 25, 0, []float64{0.25})
	gotMu, gotSig := m.Predict(xt)
	wantMu, wantSig := ref.Predict(stripCol(xt, 2))
	for i := range gotMu {
		if gotMu[i] != wantMu[i] || gotSig[i] != wantSig[i] {
			t.Fatalf("row %d: multifid (%v, %v) != exact (%v, %v)",
				i, gotMu[i], gotSig[i], wantMu[i], wantSig[i])
		}
	}
	gh, wh := m.Hyperparams(), ref.Hyperparams()
	if len(gh) != len(wh) {
		t.Fatalf("hyperparams length %d != %d", len(gh), len(wh))
	}
	for i := range gh {
		if gh[i] != wh[i] {
			t.Fatalf("hyperparam %d: %v != %v", i, gh[i], wh[i])
		}
	}
}

// TestMultiFidRhoZeroMatchesIndependentGPs pins the ρ=0 decoupling: with
// the inter-level scale frozen at zero the top level is an independent GP
// on its own observations alone, so predictions agree within ≤1e-8 (the
// satellite's bound; the only arithmetic difference is the recursion
// adding a zero-scaled term).
func TestMultiFidRhoZeroMatchesIndependentGPs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ladder := []float64{0, 1}
	x, y := multiFidData(rng, 30, 30, ladder)
	cfg := Config{Noise: 0.05, Seed: 3, NormalizeY: true}

	m := newTestMultiFid(t, ladder, []float64{0, 0}, cfg)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}

	// Independent reference: the top level's own rows only, seeded the way
	// the multifid seeds level 1.
	var hiRows []int
	for i := 0; i < x.Rows(); i++ {
		if x.At(i, 2) == ladder[1] {
			hiRows = append(hiRows, i)
		}
	}
	xHi := mat.NewDense(len(hiRows), 2, nil)
	yHi := make([]float64, len(hiRows))
	for r, i := range hiRows {
		xHi.Set(r, 0, x.At(i, 0))
		xHi.Set(r, 1, x.At(i, 1))
		yHi[r] = y[i]
	}
	refCfg := cfg
	refCfg.Seed++
	ref := New(kernel.NewRBF(0.5, 1), refCfg)
	if err := ref.Fit(xHi, yHi); err != nil {
		t.Fatal(err)
	}

	xt, _ := multiFidData(rand.New(rand.NewSource(10)), 0, 20, ladder)
	gotMu, gotSig := m.Predict(xt)
	wantMu, wantSig := ref.Predict(stripCol(xt, 2))
	for i := range gotMu {
		if math.Abs(gotMu[i]-wantMu[i]) > 1e-8 || math.Abs(gotSig[i]-wantSig[i]) > 1e-8 {
			t.Fatalf("row %d: rho=0 multifid (%v, %v) vs independent (%v, %v)",
				i, gotMu[i], gotSig[i], wantMu[i], wantSig[i])
		}
	}
}

// TestMultiFidLearnsCorrelatedLevels checks the point of co-kriging: with
// correlated levels and only a few expensive observations, borrowing the
// cheap level must beat ignoring it.
func TestMultiFidLearnsCorrelatedLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ladder := []float64{0, 1}
	x, y := multiFidData(rng, 60, 10, ladder)
	cfg := Config{Noise: 0.05, Seed: 5, NormalizeY: true}

	m := newTestMultiFid(t, ladder, nil, cfg)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	rho := m.Rho()
	if math.Abs(rho[1]-1.8) > 0.5 {
		t.Fatalf("estimated rho = %v, want near 1.8", rho[1])
	}

	// Independent top-level-only baseline.
	var hiX [][]float64
	var hiY []float64
	for i := 0; i < x.Rows(); i++ {
		if x.At(i, 2) == ladder[1] {
			hiX = append(hiX, []float64{x.At(i, 0), x.At(i, 1)})
			hiY = append(hiY, y[i])
		}
	}
	ref := New(kernel.NewRBF(0.5, 1), cfg)
	if err := ref.Fit(rowsDense(hiX), hiY); err != nil {
		t.Fatal(err)
	}

	xt, yt := multiFidData(rand.New(rand.NewSource(13)), 0, 50, ladder)
	mfMu, _ := m.Predict(xt)
	refMu, _ := ref.Predict(stripCol(xt, 2))
	var mfErr, refErr float64
	for i := range yt {
		mfErr += (mfMu[i] - yt[i]) * (mfMu[i] - yt[i])
		refErr += (refMu[i] - yt[i]) * (refMu[i] - yt[i])
	}
	if mfErr >= refErr {
		t.Fatalf("co-kriging RMSE² %v not below single-fidelity %v", mfErr, refErr)
	}
}

// TestMultiFidAppendRefitResumesBitwise pins the determinism the online
// checkpoint relies on: fitting on a prefix and replaying the remaining
// observations through Append (with a Refit mid-stream) must land in
// exactly the state of a second model driven identically.
func TestMultiFidAppendRefitResumesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ladder := []float64{0, 0.5, 1}
	x, y := multiFidData(rng, 24, 24, []float64{0, 1})
	// Re-dial a third of the rows to the middle rung for a 3-level stream.
	for i := 0; i < x.Rows(); i += 3 {
		x.Set(i, 2, 0.5)
	}
	cfg := Config{Noise: 0.05, Seed: 17, NormalizeY: true}

	drive := func() *MultiFid {
		m := newTestMultiFid(t, ladder, nil, cfg)
		init := 12
		xi := mat.NewDense(init, 3, nil)
		for i := 0; i < init; i++ {
			copy(xi.Row(i), x.Row(i))
		}
		if err := m.Fit(xi, y[:init]); err != nil {
			t.Fatal(err)
		}
		for i := init; i < x.Rows(); i++ {
			if err := m.Append(x.Row(i), y[i]); err != nil {
				t.Fatal(err)
			}
			if i == 30 {
				if err := m.Refit(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return m
	}
	a, b := drive(), drive()
	xt, _ := multiFidData(rand.New(rand.NewSource(22)), 10, 10, []float64{0, 1})
	aMu, aSig := a.Predict(xt)
	bMu, bSig := b.Predict(xt)
	for i := range aMu {
		if aMu[i] != bMu[i] || aSig[i] != bSig[i] {
			t.Fatalf("row %d: replayed models diverge: (%v,%v) vs (%v,%v)",
				i, aMu[i], aSig[i], bMu[i], bSig[i])
		}
	}
	ah, bh := a.Hyperparams(), b.Hyperparams()
	for i := range ah {
		if ah[i] != bh[i] {
			t.Fatalf("hyperparam %d diverges: %v vs %v", i, ah[i], bh[i])
		}
	}
}

// TestMultiFidCacheMatchesPredict pins the per-level incremental cache to
// direct prediction across the loop's mutations (append, refit, removal):
// selections must agree exactly, values to the ScoringCache's ≤1e-12 class.
func TestMultiFidCacheMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ladder := []float64{0, 1}
	x, y := multiFidData(rng, 30, 20, ladder)
	cfg := Config{Noise: 0.05, Seed: 7, NormalizeY: true}
	m := newTestMultiFid(t, ladder, nil, cfg)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}

	pool, _ := multiFidData(rand.New(rand.NewSource(32)), 15, 15, ladder)
	cache := NewPoolCache(m, pool)
	if cache == nil {
		t.Fatal("NewPoolCache returned nil for MultiFid")
	}
	defer cache.Close()
	if _, ok := cache.(*MultiFidCache); !ok {
		t.Fatalf("NewPoolCache returned %T, want *MultiFidCache", cache)
	}

	check := func(step string) {
		t.Helper()
		mu, sig := cache.Scores()
		wantMu, wantSig := m.Predict(pool)
		for i := range mu {
			if math.Abs(mu[i]-wantMu[i]) > 1e-8 || math.Abs(sig[i]-wantSig[i]) > 1e-8 {
				t.Fatalf("%s row %d: cache (%v, %v) vs predict (%v, %v)",
					step, i, mu[i], sig[i], wantMu[i], wantSig[i])
			}
		}
		gains := cache.(FidelityScorer).TopInfoGains()
		wantGains := m.TopInfoGains(pool)
		for i := range gains {
			if math.Abs(gains[i]-wantGains[i]) > 1e-8 {
				t.Fatalf("%s row %d: gain %v vs %v", step, i, gains[i], wantGains[i])
			}
		}
	}
	check("fresh")

	if err := m.Append(pool.Row(3), 0.7); err != nil {
		t.Fatal(err)
	}
	check("after append")

	cache.Remove(3)
	pool = pool.RemoveRow(3)
	check("after remove")

	if err := m.Refit(); err != nil {
		t.Fatal(err)
	}
	check("after refit")
}

// TestMultiFidLateLevelAppears drives a level from empty through its first
// observations via Append and checks the cache follows along.
func TestMultiFidLateLevelAppears(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ladder := []float64{0, 1}
	x, y := multiFidData(rng, 25, 0, ladder) // no top-level data at fit time
	cfg := Config{Noise: 0.05, Seed: 9, NormalizeY: true, NoOptimize: true}
	m := newTestMultiFid(t, ladder, nil, cfg)
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}

	pool, _ := multiFidData(rand.New(rand.NewSource(42)), 8, 8, ladder)
	cache := NewMultiFidCache(m, pool)
	defer cache.Close()
	_, sig0 := cache.Scores()
	top := append([]float64(nil), sig0...)

	// First top-level observation: level 1's δ-GP appears.
	if err := m.Append(pool.Row(10), 1.5); err != nil {
		t.Fatal(err)
	}
	mu, sig := cache.Scores()
	wantMu, wantSig := m.Predict(pool)
	for i := range mu {
		if math.Abs(mu[i]-wantMu[i]) > 1e-8 || math.Abs(sig[i]-wantSig[i]) > 1e-8 {
			t.Fatalf("row %d: cache (%v, %v) vs predict (%v, %v)", i, mu[i], sig[i], wantMu[i], wantSig[i])
		}
	}
	if sig[10] >= top[10] {
		t.Fatalf("observed candidate's sigma did not shrink: %v -> %v", top[10], sig[10])
	}
}

// A pick must not cost the multi-fidelity cache its gains buffer: Remove
// keeps it (its stale length forces the recombination), so Remove followed
// by Scores and TopInfoGains allocates no more than Scores and
// TopInfoGains alone, and the gains TopInfoGains then serves, recombined
// without an explicit Scores, are a fresh cache's.
func TestMultiFidCacheRemoveKeepsGains(t *testing.T) {
	withWorkers(1, func() {
		rng := rand.New(rand.NewSource(33))
		ladder := []float64{0, 1}
		x, y := multiFidData(rng, 30, 20, ladder)
		m := newTestMultiFid(t, ladder, nil, Config{Noise: 0.05, Seed: 7, NormalizeY: true})
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		pool, _ := multiFidData(rand.New(rand.NewSource(34)), 20, 20, ladder)
		cache := NewMultiFidCache(m, pool)
		defer cache.Close()
		cache.Scores()
		score := func() {
			cache.Scores()
			cache.TopInfoGains()
		}
		base := testing.AllocsPerRun(5, score)
		pick := testing.AllocsPerRun(5, func() {
			cache.Remove(0)
			score()
		})
		if pick > base {
			t.Fatalf("a pick allocates %.1f times, scoring alone %.1f", pick, base)
		}
		for i := 0; i < 6; i++ {
			pool = pool.RemoveRow(0)
		}
		cache.Remove(5)
		pool = pool.RemoveRow(5)
		gains := cache.TopInfoGains()
		fresh := NewMultiFidCache(m, pool)
		defer fresh.Close()
		fresh.Scores()
		if !bitwiseEq(gains, fresh.TopInfoGains()) {
			t.Fatal("gains recombined after a Remove differ from a fresh cache's")
		}
	})
}
