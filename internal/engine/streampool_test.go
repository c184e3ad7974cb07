package engine

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"alamr/internal/gp"
	"alamr/internal/kernel"
	"alamr/internal/mat"
	"alamr/internal/obs"
)

// streamFixture fits two small exact GPs and builds a random candidate
// pool, the minimal ingredients for exercising StreamState directly.
func streamFixture(t testing.TB, seed int64, n, m int) (cost, mem gp.Model, pool *mat.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewDense(n, 3, nil)
	yc := make([]float64, n)
	ym := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, rng.Float64()*2)
		}
		yc[i] = x.Row(i)[0]*1.3 - x.Row(i)[1] + 0.2*rng.NormFloat64()
		ym[i] = x.Row(i)[2] * 0.7
	}
	gc := gp.New(kernel.NewRBF(0.8, 1), gp.Config{Noise: 0.1, NoOptimize: true})
	gm := gp.New(kernel.NewRBF(0.8, 1), gp.Config{Noise: 0.1, NoOptimize: true})
	if err := gc.Fit(x, yc); err != nil {
		t.Fatal(err)
	}
	if err := gm.Fit(x, ym); err != nil {
		t.Fatal(err)
	}
	pool = mat.NewDense(m, 3, nil)
	for i := 0; i < m; i++ {
		for j := 0; j < 3; j++ {
			pool.Set(i, j, rng.Float64()*2)
		}
	}
	return gc, gm, pool
}

// scoredRow is one shortlist row as the tests record it: the streamed
// entry (id, cost posterior) plus the memory posterior.
type scoredRow struct {
	streamEntry
	muM, sigM float64
}

// bruteTopK is the reference: predict the whole pool through both
// surrogates, sort every live candidate by (cost σ desc, id asc), truncate
// to k.
func bruteTopK(cost, mem gp.Model, pool *mat.Dense, removed map[int]bool, k int) []scoredRow {
	muC, sigC := cost.Predict(pool)
	muM, sigM := mem.Predict(pool)
	var all []scoredRow
	for i := 0; i < pool.Rows(); i++ {
		if removed[i] {
			continue
		}
		all = append(all, scoredRow{
			streamEntry: streamEntry{id: i, mu: muC[i], sigma: sigC[i]},
			muM:         muM[i], sigM: sigM[i],
		})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].better(all[j].streamEntry) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func checkShortlist(t *testing.T, tag string, c *Candidates, ids []int, want []scoredRow) {
	t.Helper()
	if len(ids) != len(want) {
		t.Fatalf("%s: shortlist has %d entries, want %d", tag, len(ids), len(want))
	}
	for i, w := range want {
		if ids[i] != w.id {
			t.Fatalf("%s: shortlist[%d] = id %d, want %d", tag, i, ids[i], w.id)
		}
		if c.MuCost[i] != w.mu || c.SigmaCost[i] != w.sigma || c.MuMem[i] != w.muM || c.SigmaMem[i] != w.sigM {
			t.Fatalf("%s: shortlist[%d] scores diverge from full-pool Predict", tag, i)
		}
	}
}

// TestStreamSelectExactTopK: the sharded heap-merge shortlist is the exact
// top-k a full materialized scan would produce — same ids, same order,
// bitwise-same scores — across removals and shard-boundary sizes.
func TestStreamSelectExactTopK(t *testing.T) {
	cost, mem, pool := streamFixture(t, 21, 40, 501) // 501: a partial tail shard
	st := NewStreamState(DenseSource{X: pool}, cost, mem, StreamConfig{ShardSize: 64, TopK: 10})
	removed := map[int]bool{}
	for round := 0; round < 4; round++ {
		c, ids := st.Select()
		checkShortlist(t, "round", c, ids, bruteTopK(cost, mem, pool, removed, 10))
		// Remove the winner plus an arbitrary mid candidate, as a loop would.
		for _, id := range []int{ids[0], ids[len(ids)/2]} {
			st.Remove(id)
			removed[id] = true
		}
	}
	if st.Live() != pool.Rows()-8 {
		t.Fatalf("live %d, want %d", st.Live(), pool.Rows()-8)
	}
}

// TestStreamPruningExactAcrossAppends: each candidate's last σ is a true
// upper bound (posterior σ never increases as observations are appended),
// so pruning still returns the exact top-k across a schedule of appends and
// removals.
func TestStreamPruningExactAcrossAppends(t *testing.T) {
	cost, mem, pool := streamFixture(t, 22, 40, 640)
	st := NewStreamState(DenseSource{X: pool}, cost, mem, StreamConfig{ShardSize: 64, TopK: 8})
	rng := rand.New(rand.NewSource(23))
	removed := map[int]bool{}
	for round := 0; round < 8; round++ {
		c, ids := st.Select()
		checkShortlist(t, "round", c, ids, bruteTopK(cost, mem, pool, removed, 8))
		pick := ids[0]
		st.Remove(pick)
		removed[pick] = true
		// Absorb the pick as a new observation; sigma shrinks pool-wide.
		if err := cost.Append(pool.Row(pick), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
		if err := mem.Append(pool.Row(pick), rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGridSourceDecode: mixed-radix decoding against an explicitly
// materialized Cartesian product, last axis fastest, in unaligned chunks
// written at a zero and a nonzero offset into a larger slab whose other
// values Fill leaves alone.
func TestGridSourceDecode(t *testing.T) {
	src := GridSource{Axes: [][]float64{{1, 2}, {10, 20, 30}, {0.5}}}
	if src.Len() != 6 || src.Dim() != 3 {
		t.Fatalf("Len=%d Dim=%d, want 6 and 3", src.Len(), src.Dim())
	}
	var want []float64
	for _, a := range []float64{1, 2} {
		for _, b := range []float64{10, 20, 30} {
			want = append(want, a, b, 0.5)
		}
	}
	for _, r := range [][2]int{{0, 6}, {0, 4}, {4, 6}, {1, 2}, {3, 3}} {
		for _, off := range []int{0, 2} {
			slab := make([]float64, (off+7)*3)
			for i := range slab {
				slab[i] = -1
			}
			src.Fill(r[0], r[1], slab[off*3:])
			for i, got := range slab {
				w := -1.0
				if v := i - off*3; v >= 0 && v < (r[1]-r[0])*3 {
					w = want[r[0]*3+v]
				}
				if got != w {
					t.Fatalf("rows [%d, %d) at offset %d: slab[%d] = %v, want %v", r[0], r[1], off, i, got, w)
				}
			}
		}
	}
}

// TestStreamedReplayMatchesMaterialized: a streamed-pool replay campaign
// must produce the identical trajectory to the default materialized pool —
// the shortlist argmax is the pool argmax.
func TestStreamedReplayMatchesMaterialized(t *testing.T) {
	ds := synthDS(150, 55)
	base := replaySpec("mat/maxsigma", "maxsigma", 5, 10, 6)
	streamed := replaySpec("stream/maxsigma", "maxsigma", 5, 10, 6)
	streamed.Replay.Pool = &PoolSpec{Shard: 32, TopK: 8}

	want, err := RunReplaySpec(ds, base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunReplaySpec(ds, streamed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streamed trajectory differs from materialized")
	}
}

// TestStreamedReplayApproxMatchesMaterialized: the pruned pass (the
// "approx" of the scale benchmark's pool=streamed-approx tag) keeps the
// trajectory exact with small shards and a short shortlist, where most
// candidates are skipped on their bounds.
func TestStreamedReplayApproxMatchesMaterialized(t *testing.T) {
	ds := synthDS(150, 56)
	base := replaySpec("mat/approx", "maxsigma", 6, 10, 8)
	streamed := replaySpec("stream/approx", "maxsigma", 6, 10, 8)
	streamed.Replay.Pool = &PoolSpec{Shard: 16, TopK: 4}

	want, err := RunReplaySpec(ds, base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunReplaySpec(ds, streamed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pruned streamed trajectory differs from materialized")
	}
}

// TestStreamedReplayPruningSurvivesHyperopt: a hyperparameter refit can
// raise σ everywhere at once, breaking the monotone-drift premise the prune
// bounds rest on. Exactness across the campaign's refits (HyperoptEvery 5,
// 12 iterations) rests entirely on the loop invalidating the bounds after
// each refit.
func TestStreamedReplayPruningSurvivesHyperopt(t *testing.T) {
	ds := synthDS(150, 58)
	base := replaySpec("mat/hyper", "maxsigma", 9, 10, 12)
	streamed := replaySpec("stream/hyper", "maxsigma", 9, 10, 12)
	streamed.Replay.Pool = &PoolSpec{Shard: 16, TopK: 4}

	want, err := RunReplaySpec(ds, base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunReplaySpec(ds, streamed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pruned streamed trajectory drifted from materialized across hyperopt refits")
	}
}

// TestInvalidateBoundsForcesRescore: after invalidateBounds (the reset a
// moved posterior generation triggers) every live candidate's prune bound
// is +Inf again, so the next Select rescores the whole pool.
func TestInvalidateBoundsForcesRescore(t *testing.T) {
	cost, mem, x := streamFixture(t, 59, 40, 200)
	st := NewStreamState(DenseSource{X: x}, cost, mem, StreamConfig{ShardSize: 32, TopK: 4})
	st.Select() // primes the per-candidate bounds
	for id, b := range st.bounds {
		if math.IsInf(b, 1) {
			t.Fatalf("candidate %d bound not primed", id)
		}
	}
	st.Remove(7)
	st.invalidateBounds()
	for id, b := range st.bounds {
		if id == 7 {
			if !isTombstone(b) {
				t.Fatalf("invalidateBounds revived removed candidate 7 (bound %g)", b)
			}
			continue
		}
		if !math.IsInf(b, 1) {
			t.Fatalf("candidate %d bound %g after invalidateBounds, want +Inf", id, b)
		}
	}
	st.Select()
	if got := laneTotals(st).candScored; got != int64(st.Live()) {
		t.Fatalf("Select after invalidateBounds scored %d of %d live candidates", got, st.Live())
	}
}

// TestSparseModelReplayRuns: a sparse-surrogate streamed campaign runs end
// to end through the spec layer and yields a full trajectory.
func TestSparseModelReplayRuns(t *testing.T) {
	ds := synthDS(200, 57)
	spec := replaySpec("sparse/stream", "maxsigma", 7, 30, 5)
	spec.Model = &ModelSpec{Name: ModelSparse, Inducing: 16}
	spec.Replay.Pool = &PoolSpec{Shard: 32, TopK: 8}
	tr, err := RunReplaySpec(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Iterations() != 5 {
		t.Fatalf("got %d iterations, want 5", tr.Iterations())
	}
	treed := replaySpec("treed/stream", "maxsigma", 7, 30, 5)
	treed.Model = &ModelSpec{Name: ModelTreed, LeafSize: 24}
	treed.Replay.Pool = &PoolSpec{Shard: 32, TopK: 8}
	tr, err = RunReplaySpec(ds, treed)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Iterations() != 5 {
		t.Fatalf("treed: got %d iterations, want 5", tr.Iterations())
	}
}

// TestPoolSpecValidation: the streamed pool serves maxsigma only and never
// composes with batch selection.
func TestPoolSpecValidation(t *testing.T) {
	s := replaySpec("bad/batch", "maxsigma", 1, 5, 3)
	s.Replay.Pool = &PoolSpec{}
	s.Replay.Batch = &BatchSelectSpec{Q: 2}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("pool+batch: got %v", err)
	}

	for _, policy := range []string{"rgma", "minpred"} {
		s = replaySpec("bad/policy", policy, 1, 5, 3)
		s.Replay.Pool = &PoolSpec{}
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), "maxsigma") || !strings.Contains(err.Error(), policy) {
			t.Fatalf("policy %s on the streamed pool: got %v, want an error naming maxsigma and %s", policy, err, policy)
		}
	}

	s = replaySpec("bad/neg", "maxsigma", 1, 5, 3)
	s.Replay.Pool = &PoolSpec{TopK: -1}
	if err := s.Validate(); err == nil {
		t.Fatal("negative top_k accepted")
	}
}

// TestStreamObsReconciles: the shard scored/pruned counters partition the
// shard-visit count, the candidate scored/pruned counters partition the
// live candidates visited, the live gauge tracks the pool, and the
// cache-op counters record the sparse surrogate's extend traffic.
func TestStreamObsReconciles(t *testing.T) {
	obs.Disable()
	reg := obs.NewRegistry()
	obs.Enable(reg, nil)
	defer obs.Disable()

	ds := synthDS(200, 58)
	spec := replaySpec("obs/stream", "maxsigma", 9, 20, 6)
	spec.Model = &ModelSpec{Name: ModelSparse, Inducing: 16}
	spec.Replay.Pool = &PoolSpec{Shard: 32, TopK: 8}
	if _, err := RunReplaySpec(ds, spec); err != nil {
		t.Fatal(err)
	}

	scored, _ := reg.CounterValue(obs.MetricPoolShardsScored)
	pruned, _ := reg.CounterValue(obs.MetricPoolShardsPruned)
	pool := 200 - 30 - 20 // jobs minus test and init partitions
	nShards := int64((pool + 31) / 32)
	iters := int64(6)
	if scored+pruned != nShards*iters {
		t.Fatalf("scored %d + pruned %d != %d shards x %d selects", scored, pruned, nShards, iters)
	}
	if scored < nShards {
		t.Fatalf("scored %d: the first select can never prune", scored)
	}
	// The candidate counters partition the live candidates each Select
	// visits: the i-th Select (from 0) sees pool - i, its predecessors'
	// picks removed.
	candScored, _ := reg.CounterValue(obs.MetricPoolCandidatesScored)
	candPruned, _ := reg.CounterValue(obs.MetricPoolCandidatesPruned)
	var visited int64
	for i := int64(0); i < iters; i++ {
		visited += int64(pool) - i
	}
	if candScored+candPruned != visited {
		t.Fatalf("candidates scored %d + pruned %d != %d live candidates visited", candScored, candPruned, visited)
	}
	if candPruned == 0 {
		t.Fatal("no candidate pruned across selects between refits")
	}
	live, ok := reg.GaugeValue(obs.MetricPoolStreamLive)
	if !ok || live != float64(pool-int(iters)+1) {
		// The gauge is set at the start of each Select, before that
		// iteration's pick is removed: pool - (iters-1) picks so far.
		t.Fatalf("live gauge %v (ok=%v), want %d", live, ok, pool-int(iters)+1)
	}
	// The streamed pool scores through the model directly (no attached
	// cache); a materialized sparse campaign exercises the cache-op
	// counters.
	matSpec := replaySpec("obs/mat", "maxsigma", 9, 20, 6)
	matSpec.Model = &ModelSpec{Name: ModelSparse, Inducing: 16}
	if _, err := RunReplaySpec(ds, matSpec); err != nil {
		t.Fatal(err)
	}
	extends, _ := reg.CounterValue(obs.Labeled(obs.MetricModelCacheOps, "kind", obs.ModelCacheSparseExtend))
	rebuilds, _ := reg.CounterValue(obs.Labeled(obs.MetricModelCacheOps, "kind", obs.ModelCacheSparseRebuild))
	if extends == 0 || rebuilds == 0 {
		t.Fatalf("materialized sparse campaign recorded extends=%d rebuilds=%d cache ops", extends, rebuilds)
	}
}

// TestStreamSelectEmptyPool: once every candidate is removed, Select
// returns an empty shortlist — without generating rows or asking the
// memory surrogate for any — and a policy reports the empty candidate set
// as an error, at every worker count.
func TestStreamSelectEmptyPool(t *testing.T) {
	cost, mem, pool := streamFixture(t, 63, 20, 10)
	for _, w := range streamWorkerCounts() {
		prev := mat.SetWorkers(w)
		probe := &countingModel{Model: mem}
		st := NewStreamState(DenseSource{X: pool}, cost, probe, StreamConfig{ShardSize: 4, TopK: 3})
		st.Select()
		for id := 0; id < pool.Rows(); id++ {
			st.Remove(id)
		}
		probe.reset()
		c, ids := st.Select()
		mat.SetWorkers(prev)
		if len(ids) != 0 || c.Len() != 0 || c.X != nil {
			t.Fatalf("workers=%d: empty pool gave %d ids, %d candidates, X %v", w, len(ids), c.Len(), c.X)
		}
		if n := probe.calls.Load() + probe.laneCalls.Load(); n != 0 {
			t.Fatalf("workers=%d: empty pool asked the memory surrogate %d times", w, n)
		}
		if _, err := (MaxSigma{}).Select(c, rand.New(rand.NewSource(1))); err == nil || !strings.Contains(err.Error(), "empty candidate set") {
			t.Fatalf("workers=%d: policy on the empty shortlist returned %v", w, err)
		}
	}
}

// oobMaxSigma is maxsigma by name but picks one past the last scored
// candidate.
type oobMaxSigma struct{}

func (oobMaxSigma) Name() string { return "maxsigma" }

func (oobMaxSigma) Select(c *Candidates, _ *rand.Rand) (int, error) { return c.Len(), nil }

// TestStreamedReplayRejectsOutOfRangePick: a pick is checked against the
// scored set — on a streamed pool the top-k shortlist, not the pool — so an
// out-of-range pick ends the campaign with an error instead of a panic.
func TestStreamedReplayRejectsOutOfRangePick(t *testing.T) {
	ds := synthDS(200, 71)
	part := smallPartition(t, ds, 10, 40, 21)
	_, err := RunReplay(ds, part, LoopConfig{
		Policy:        oobMaxSigma{},
		MaxIterations: 3,
		Seed:          5,
		Pool:          &PoolSpec{TopK: 8},
	})
	if err == nil || !strings.Contains(err.Error(), "out-of-range index 8 of 8 candidates") {
		t.Fatalf("err = %v, want the out-of-range pick reported against 8 candidates", err)
	}
}
