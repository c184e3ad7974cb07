package gp

import (
	"math"
	"math/rand"
	"testing"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// scoringTol is the pinned agreement between cached scores and direct
// Predict (the two paths group floating-point operations differently, so
// they are close, not bitwise-equal).
const scoringTol = 1e-12

func poolRows(rng *rand.Rand, m, d int) [][]float64 {
	rows := make([][]float64, m)
	for i := range rows {
		r := make([]float64, d)
		for j := range r {
			r[j] = rng.Float64() * 4
		}
		rows[i] = r
	}
	return rows
}

func denseOf(rows [][]float64) *mat.Dense {
	x := mat.NewDense(len(rows), len(rows[0]), nil)
	for i, r := range rows {
		copy(x.Row(i), r)
	}
	return x
}

func checkAgainstPredict(t *testing.T, tag string, g *GP, c *ScoringCache, pool [][]float64) {
	t.Helper()
	if c.Len() != len(pool) {
		t.Fatalf("%s: cache has %d candidates, pool has %d", tag, c.Len(), len(pool))
	}
	if len(pool) == 0 {
		return
	}
	mu, sigma := c.Scores()
	wantMu, wantSigma := g.Predict(denseOf(pool))
	for i := range pool {
		if math.Abs(mu[i]-wantMu[i]) > scoringTol {
			t.Fatalf("%s: candidate %d: cached mu %.17g, Predict %.17g", tag, i, mu[i], wantMu[i])
		}
		if math.Abs(sigma[i]-wantSigma[i]) > scoringTol {
			t.Fatalf("%s: candidate %d: cached sigma %.17g, Predict %.17g", tag, i, sigma[i], wantSigma[i])
		}
	}
}

func fitTestGP(t *testing.T, rng *rand.Rand, n int) *GP {
	t.Helper()
	x, y := eqTrainingSet(rng, n)
	g := New(kernel.NewRBF(0.8, 1.2), Config{Noise: 0.05, NoOptimize: true})
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	return g
}

// The core equivalence property: over a randomized schedule of appends,
// removals, and hyperparameter refits, cached scores track direct Predict
// within 1e-12 for every live candidate.
func TestScoringCacheMatchesPredict(t *testing.T) {
	ops := 80
	if testing.Short() {
		ops = 30
	}
	rng := rand.New(rand.NewSource(11))
	g := fitTestGP(t, rng, 14)
	pool := poolRows(rng, 32, 2)
	c := NewScoringCache(g, denseOf(pool))
	defer c.Close()
	checkAgainstPredict(t, "initial", g, c, pool)

	for op := 0; op < ops; op++ {
		switch {
		case op%9 == 8:
			// Perturb hyperparameters and refit: every cached row is wrong
			// until the rebuild pass runs.
			hp := g.Hyperparams()
			for i := range hp {
				hp[i] += 0.05 * rng.NormFloat64()
			}
			g.SetHyperparams(hp)
			if err := g.Refit(); err != nil {
				t.Fatalf("op %d: Refit: %v", op, err)
			}
		case op%3 == 1 && len(pool) > 4:
			p := rng.Intn(len(pool))
			pool = append(pool[:p], pool[p+1:]...)
			c.Remove(p)
		default:
			x := []float64{rng.Float64() * 4, rng.Float64() * 4}
			y := math.Sin(x[0]) * math.Cos(x[1])
			if err := g.Append(x, y); err != nil {
				t.Fatalf("op %d: Append: %v", op, err)
			}
		}
		checkAgainstPredict(t, "after op", g, c, pool)
	}
}

// The censored-OOM feed pattern of the online runtime: the memory surrogate
// absorbs observations the cost surrogate never sees. Each cache tracks
// exactly its own model, so asymmetric appends keep both caches correct.
func TestScoringCacheCensoredFeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	gCost := fitTestGP(t, rng, 12)
	gMem := fitTestGP(t, rng, 12)
	pool := poolRows(rng, 20, 2)
	cCost := NewScoringCache(gCost, denseOf(pool))
	defer cCost.Close()
	cMem := NewScoringCache(gMem, denseOf(pool))
	defer cMem.Close()

	for op := 0; op < 40; op++ {
		x := []float64{rng.Float64() * 4, rng.Float64() * 4}
		y := math.Sin(x[0]) * math.Cos(x[1])
		censored := op%4 == 1
		if !censored {
			if err := gCost.Append(x, y); err != nil {
				t.Fatal(err)
			}
		}
		// An OOM kill feeds the memory model its clamped lower bound.
		if err := gMem.Append(x, y+0.5); err != nil {
			t.Fatal(err)
		}
		if op%10 == 9 {
			if err := gCost.Refit(); err != nil {
				t.Fatal(err)
			}
			if err := gMem.Refit(); err != nil {
				t.Fatal(err)
			}
		}
		if op%5 == 3 && len(pool) > 2 {
			p := rng.Intn(len(pool))
			pool = append(pool[:p], pool[p+1:]...)
			cCost.Remove(p)
			cMem.Remove(p)
		}
		checkAgainstPredict(t, "cost", gCost, cCost, pool)
		checkAgainstPredict(t, "mem", gMem, cMem, pool)
	}
}

// The checkpoint-resume contract: a cache maintained incrementally across a
// run of appends holds bit-for-bit the state of a cache freshly built (and
// hence rebuilt) at the final model size.
func TestScoringCacheIncrementalMatchesRebuildBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := fitTestGP(t, rng, 10)
	pool := poolRows(rng, 25, 2)
	live := NewScoringCache(g, denseOf(pool))
	defer live.Close()
	// Force the initial build before the appends so the live cache really
	// takes the incremental path below.
	live.Scores()
	for op := 0; op < 70; op++ {
		x := []float64{rng.Float64() * 4, rng.Float64() * 4}
		if err := g.Append(x, math.Sin(x[0])); err != nil {
			t.Fatal(err)
		}
		if op%6 == 5 && len(pool) > 3 {
			p := rng.Intn(len(pool))
			pool = append(pool[:p], pool[p+1:]...)
			live.Remove(p)
		}
	}
	fresh := NewScoringCache(g, denseOf(pool))
	defer fresh.Close()

	liveMu, liveSigma := live.Scores()
	freshMu, freshSigma := fresh.Scores()
	if !bitwiseEq(liveMu, freshMu) {
		t.Fatal("incrementally maintained means differ bitwise from a fresh rebuild")
	}
	if !bitwiseEq(liveSigma, freshSigma) {
		t.Fatal("incrementally maintained sigmas differ bitwise from a fresh rebuild")
	}
}

// Worker-count independence: the cache's parallel passes (rebuild, extend,
// score) must produce identical bits for any pool size.
func TestScoringCacheSerialParallelIdentical(t *testing.T) {
	run := func(workers int) (mu, sigma []float64) {
		withWorkers(workers, func() {
			rng := rand.New(rand.NewSource(31))
			g := fitTestGP(t, rng, 12)
			pool := poolRows(rng, 40, 2)
			c := NewScoringCache(g, denseOf(pool))
			defer c.Close()
			for op := 0; op < 30; op++ {
				x := []float64{rng.Float64() * 4, rng.Float64() * 4}
				if err := g.Append(x, math.Cos(x[1])); err != nil {
					t.Fatal(err)
				}
				if op%7 == 6 {
					c.Remove(rng.Intn(c.Len()))
				}
			}
			m, s := c.Scores()
			mu = append([]float64(nil), m...)
			sigma = append([]float64(nil), s...)
		})
		return mu, sigma
	}
	mu1, sigma1 := run(1)
	mu8, sigma8 := run(8)
	if !bitwiseEq(mu1, mu8) || !bitwiseEq(sigma1, sigma8) {
		t.Fatal("cached scores depend on the worker count")
	}
}

// Close must detach: a closed cache no longer burns time (or breaks) when
// the model keeps evolving, and the GP's cache list shrinks.
func TestScoringCacheClose(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := fitTestGP(t, rng, 10)
	c := NewScoringCache(g, denseOf(poolRows(rng, 5, 2)))
	c.Close()
	if len(g.caches) != 0 {
		t.Fatalf("GP still tracks %d caches after Close", len(g.caches))
	}
	if err := g.Append([]float64{1, 1}, 0.5); err != nil {
		t.Fatal(err)
	}
}

// refCache is the per-candidate scoring cache the slab layout replaced,
// kept as the oracle: one slice per candidate for kᵢ and vᵢ, grown by
// append, every kernel entry through the GP's row evaluator and every prior
// variance through kern.Eval. It is not registered with its GP; the test
// extends it after each Append and invalidates it after each Refit.
type refCache struct {
	g          *GP
	xs, ks, vs [][]float64
	v2, kss    []float64
	order      []int
	stale      bool
}

func newRefCache(g *GP, pool [][]float64) *refCache {
	c := &refCache{g: g, stale: true}
	for i, x := range pool {
		c.xs = append(c.xs, append([]float64(nil), x...))
		c.ks = append(c.ks, nil)
		c.vs = append(c.vs, nil)
		c.v2 = append(c.v2, 0)
		c.kss = append(c.kss, 0)
		c.order = append(c.order, i)
	}
	return c
}

func (c *refCache) scores() (mu, sigma []float64) {
	g := c.g
	n := g.x.Rows()
	if c.stale {
		for s := range c.xs {
			c.ks[s] = growVec(c.ks[s], n)
			c.vs[s] = growVec(c.vs[s], n)
			g.rowEval.Eval(c.xs[s], 0, c.ks[s])
			c.v2[s] = g.chol.ForwardSolveFlatTo(c.vs[s], c.ks[s])
			c.kss[s] = g.kern.Eval(c.xs[s], c.xs[s])
		}
		c.stale = false
	}
	for _, s := range c.order {
		mu = append(mu, mat.DotBlocked(c.ks[s][:n], g.alpha)+g.yMean)
		variance := c.kss[s] - c.v2[s]
		if variance < 0 {
			variance = 0
		}
		sigma = append(sigma, math.Sqrt(variance))
	}
	return mu, sigma
}

func (c *refCache) extend() {
	if c.stale {
		return
	}
	g := c.g
	n := g.x.Rows()
	var kNew [1]float64
	for s := range c.xs {
		g.rowEval.Eval(c.xs[s], n-1, kNew[:])
		vNew := g.chol.BorderSolveStep(c.vs[s], kNew[0])
		c.ks[s] = append(c.ks[s], kNew[0])
		c.vs[s] = append(c.vs[s], vNew)
		c.v2[s] += vNew * vNew
	}
}

func (c *refCache) remove(p int) {
	s := c.order[p]
	c.order = append(c.order[:p], c.order[p+1:]...)
	last := len(c.xs) - 1
	if s != last {
		c.xs[s], c.ks[s], c.vs[s] = c.xs[last], c.ks[last], c.vs[last]
		c.v2[s], c.kss[s] = c.v2[last], c.kss[last]
		for q, t := range c.order {
			if t == last {
				c.order[q] = s
				break
			}
		}
	}
	c.xs, c.ks, c.vs = c.xs[:last], c.ks[:last], c.vs[:last]
	c.v2, c.kss = c.v2[:last], c.kss[:last]
}

func sameBits(a, b []float64) bool {
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

// The entry-major slabs, the column sweep and the strided lane kernels keep
// every bit of the per-candidate cache. One cost and one memory surrogate,
// each with a cache, absorb appends (some memory-only, as censored feeds
// are) across at least three slab growths, removals of slot 0, a middle slot
// and the last slot, and hyperparameter refits. After every step each
// cache's scores must equal, bit for bit, a fresh cache's and the oracle's,
// and every stored prior variance must equal kern.Eval(x, x). The RBF
// kernel takes the column sweep; ARD and Matérn the per-candidate rows.
// The pool holds a row with an infinite feature.
func TestScoringCacheSlabBitwise(t *testing.T) {
	kernels := []struct {
		name string
		k    kernel.Kernel
	}{
		{"rbf", kernel.NewRBF(0.8, 1.2)},
		{"ard", kernel.NewARDRBF([]float64{0.7, 1.3}, 1.1)},
		{"matern", kernel.NewMatern(2.5, 0.9, 1.0)},
	}
	for _, kc := range kernels {
		t.Run(kc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(43))
			x, y := eqTrainingSet(rng, 2)
			gs := make([]*GP, 2)
			for i := range gs {
				gs[i] = New(kc.k, Config{Noise: 0.05 * float64(i+1), NoOptimize: true})
				if err := gs[i].Fit(x, y); err != nil {
					t.Fatal(err)
				}
			}
			pool := poolRows(rng, 70, 2)
			pool[23][1] = math.Inf(1)
			caches := make([]*ScoringCache, 2)
			refs := make([]*refCache, 2)
			for i, g := range gs {
				caches[i] = NewScoringCache(g, denseOf(pool))
				defer caches[i].Close()
				refs[i] = newRefCache(g, pool)
			}
			growths, room := 0, 0
			check := func(step int) {
				t.Helper()
				for i, g := range gs {
					c := caches[i]
					mu, sigma := c.Scores()
					rMu, rSigma := refs[i].scores()
					fresh := NewScoringCache(g, denseOf(pool))
					fMu, fSigma := fresh.Scores()
					fresh.Close()
					if !sameBits(mu, rMu) || !sameBits(sigma, rSigma) {
						t.Fatalf("step %d, surrogate %d: scores differ from the per-candidate oracle", step, i)
					}
					if !sameBits(mu, fMu) || !sameBits(sigma, fSigma) {
						t.Fatalf("step %d, surrogate %d: scores differ from a fresh cache", step, i)
					}
					for s := range c.pos {
						if want := g.kern.Eval(c.row(s), c.row(s)); math.Float64bits(c.kss[s]) != math.Float64bits(want) {
							t.Fatalf("step %d, surrogate %d, slot %d: prior variance %v, kern.Eval(x, x) %v", step, i, s, c.kss[s], want)
						}
					}
				}
				if caches[0].room != room {
					growths++
					room = caches[0].room
				}
			}
			check(-1)
			removeSlot := func(slot int) {
				p := caches[0].pos[slot]
				for i := range gs {
					if caches[i].pos[slot] != p {
						t.Fatalf("the two caches disagree on position %d's slot", p)
					}
					caches[i].Remove(p)
					refs[i].remove(p)
				}
				pool = append(pool[:p], pool[p+1:]...)
			}
			for step := 0; step < 150; step++ {
				switch {
				case step%17 == 16:
					for i, g := range gs {
						hp := g.Hyperparams()
						for h := range hp {
							hp[h] += 0.05 * rng.NormFloat64()
						}
						g.SetHyperparams(hp)
						if err := g.Refit(); err != nil {
							t.Fatalf("step %d: Refit: %v", step, err)
						}
						refs[i].stale = true
					}
				case step%11 == 3:
					removeSlot(0)
				case step%11 == 6:
					removeSlot(len(pool) / 2)
				case step%11 == 9:
					removeSlot(len(pool) - 1)
				default:
					xa := []float64{rng.Float64() * 4, rng.Float64() * 4}
					ya := math.Sin(xa[0]) * math.Cos(xa[1])
					for i, g := range gs {
						if i == 0 && step%5 == 2 {
							continue // censored: the memory surrogate alone learns
						}
						if err := g.Append(xa, ya+float64(i)); err != nil {
							t.Fatalf("step %d: Append: %v", step, err)
						}
						refs[i].extend()
					}
				}
				check(step)
			}
			if growths < 4 {
				t.Fatalf("the cost cache's room changed %d times (first build included), want at least 3 growths", growths)
			}
		})
	}
}

// After warm-up the cache's own work allocates nothing: the extend step for
// an append that fits the slabs' room, and a Scores call on a current cache. The
// pass runs inline (one worker); a dispatched pass pays the worker pool's
// own synchronization.
func TestScoringCacheSlabAllocs(t *testing.T) {
	withWorkers(1, func() {
		rng := rand.New(rand.NewSource(47))
		for _, k := range []kernel.Kernel{kernel.NewRBF(0.8, 1.2), kernel.NewMatern(1.5, 0.9, 1.0)} {
			x, y := eqTrainingSet(rng, 10)
			g := New(k, Config{Noise: 0.05, NoOptimize: true})
			if err := g.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			pool := poolRows(rng, 300, 2)
			c := NewScoringCache(g, denseOf(pool))
			c.Scores()
			if a := testing.AllocsPerRun(10, func() { c.Scores() }); a != 0 {
				t.Fatalf("%v: Scores on a current cache allocates %.1f times, want 0", k, a)
			}
			// Detach, append, and replay the cache's extend step from the
			// same pre-append state each run.
			c.Close()
			if err := g.Append([]float64{1.5, 2.5}, 0.3); err != nil {
				t.Fatal(err)
			}
			if g.x.Rows() > c.room {
				t.Fatalf("append outgrew the room %d; the pin needs one that fits", c.room)
			}
			v2 := append([]float64(nil), c.v2...)
			n := c.n
			extend := func() {
				c.n = n
				copy(c.v2, v2)
				c.extendAppend()
			}
			if a := testing.AllocsPerRun(10, extend); a != 0 {
				t.Fatalf("%v: extending for an append that fits the room allocates %.1f times, want 0", k, a)
			}
			// The replayed step left the state one append makes.
			mu, sigma := c.Scores()
			fresh := NewScoringCache(g, denseOf(pool))
			fMu, fSigma := fresh.Scores()
			fresh.Close()
			if !sameBits(mu, fMu) || !sameBits(sigma, fSigma) {
				t.Fatalf("%v: scores after the replayed extend differ from a fresh cache", k)
			}
		}
	})
}
