package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"alamr/internal/dataset"
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

// scoredRow is one winner as the tests record it: the streamed entry (id,
// cost posterior) plus the memory posterior.
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

// checkWinner requires Select's winner to be the full scan's: want is
// bruteTopK(…, 1), and the id and all four scores must match bitwise.
func checkWinner(t *testing.T, tag string, c *Candidates, id int, want []scoredRow) {
	t.Helper()
	if got := winnerRecord(c, id); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: winner %+v, full-pool scan %+v", tag, got, want)
	}
}

// winnerRecord snapshots one Select result: the winner's id plus all four
// score fields, or nothing for an empty pool.
func winnerRecord(c *Candidates, id int) []scoredRow {
	if id < 0 {
		return nil
	}
	return []scoredRow{{
		streamEntry: streamEntry{id: id, mu: c.MuCost[0], sigma: c.SigmaCost[0]},
		muM:         c.MuMem[0], sigM: c.SigmaMem[0],
	}}
}

// nextLive returns the first live candidate at or after from (cyclically)
// other than skip: a fixed non-winner for a test to remove.
func nextLive(removed map[int]bool, n, from, skip int) int {
	for i := 0; ; i++ {
		if id := (from + i) % n; !removed[id] && id != skip {
			return id
		}
	}
}

// TestStreamSelectExactTopK: the sharded best-two merge returns the exact
// argmax a full materialized scan would produce — same id, bitwise-same
// scores, and a one-row candidate set — across removals of the winner and
// of a fixed non-winner, and a partial tail shard.
func TestStreamSelectExactTopK(t *testing.T) {
	cost, mem, pool := streamFixture(t, 21, 40, 501) // 501: a partial tail shard
	st := newStreamState(DenseSource{X: pool}, cost, mem, 64)
	removed := map[int]bool{}
	for round := 0; round < 4; round++ {
		c, id := st.Select()
		checkWinner(t, "round", c, id, bruteTopK(cost, mem, pool, removed, 1))
		if c.Len() != 1 || c.X.Rows() != 1 {
			t.Fatalf("round %d: %d candidates over %d rows, want the winner alone", round, c.Len(), c.X.Rows())
		}
		// Remove the winner plus a fixed live candidate, as a loop would.
		for _, id := range []int{id, nextLive(removed, pool.Rows(), 100*round, id)} {
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
// so pruning still returns the exact argmax across a schedule of appends
// and removals.
func TestStreamPruningExactAcrossAppends(t *testing.T) {
	cost, mem, pool := streamFixture(t, 22, 40, 640)
	st := newStreamState(DenseSource{X: pool}, cost, mem, 64)
	rng := rand.New(rand.NewSource(23))
	removed := map[int]bool{}
	for round := 0; round < 8; round++ {
		c, pick := st.Select()
		checkWinner(t, "round", c, pick, bruteTopK(cost, mem, pool, removed, 1))
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
// values Rows leaves alone, and returned as that slab's front.
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
			rows := src.Rows(r[0], r[1], slab[off*3:])
			if len(rows) != (r[1]-r[0])*3 || (len(rows) > 0 && &rows[0] != &slab[off*3]) {
				t.Fatalf("rows [%d, %d) at offset %d: %d values, not the front of the buffer", r[0], r[1], off, len(rows))
			}
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

// streamedAndMaterialized runs a maxsigma replay spec twice over the same
// plan: as the spec says, which streams a pool larger than one shard, and
// with the policy wrapped so the type check sends it to the materialized
// full scan — the oracle. The wrapper keeps MaxSigma's name, so the two
// trajectories compare whole.
func streamedAndMaterialized(t *testing.T, ds *dataset.Dataset, spec CampaignSpec) (streamed, materialized *Trajectory) {
	t.Helper()
	part, cfg, err := spec.ReplayPlan(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Active) <= streamShard {
		t.Fatalf("active pool %d fits one shard: the campaign would not stream", len(part.Active))
	}
	if streamed, err = RunReplay(ds, part, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Policy = struct{ MaxSigma }{}
	if materialized, err = RunReplay(ds, part, cfg); err != nil {
		t.Fatal(err)
	}
	return streamed, materialized
}

// TestStreamedReplayMatchesMaterialized: a streamed replay campaign (an
// exact GP over a pool just past one shard) must produce the identical
// trajectory to the materialized pool — the streamed winner is the pool
// argmax.
func TestStreamedReplayMatchesMaterialized(t *testing.T) {
	got, want := streamedAndMaterialized(t, synthDS(4400, 55), replaySpec("stream/maxsigma", "maxsigma", 5, 10, 6))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streamed trajectory differs from materialized")
	}
}

// TestStreamedReplayApproxMatchesMaterialized: the pruned pass (the
// "approx" of the scale benchmark's pool=streamed-approx tag), where most
// candidates are skipped on their bounds, keeps a treed campaign's
// trajectory exact.
func TestStreamedReplayApproxMatchesMaterialized(t *testing.T) {
	spec := replaySpec("stream/approx", "maxsigma", 6, 10, 8)
	spec.Model = &ModelSpec{Name: ModelTreed, LeafSize: 24}
	got, want := streamedAndMaterialized(t, synthDS(4400, 56), spec)
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
	got, want := streamedAndMaterialized(t, synthDS(4400, 58), replaySpec("stream/hyper", "maxsigma", 9, 10, 12))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pruned streamed trajectory drifted from materialized across hyperopt refits")
	}
}

// TestInvalidateBoundsForcesRescore: after invalidateBounds (the reset a
// moved posterior generation triggers) every live candidate's prune bound
// is +Inf again, so the next Select rescores the whole pool.
func TestInvalidateBoundsForcesRescore(t *testing.T) {
	cost, mem, x := streamFixture(t, 59, 40, 200)
	st := newStreamState(DenseSource{X: x}, cost, mem, 32)
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

// TestSparseModelReplayRuns: sparse- and treed-surrogate streamed campaigns
// run end to end through the spec layer and yield full trajectories.
func TestSparseModelReplayRuns(t *testing.T) {
	ds := synthDS(4400, 57)
	spec := replaySpec("sparse/stream", "maxsigma", 7, 30, 5)
	spec.Model = &ModelSpec{Name: ModelSparse, Inducing: 16}
	tr, err := RunReplaySpec(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Iterations() != 5 {
		t.Fatalf("got %d iterations, want 5", tr.Iterations())
	}
	treed := replaySpec("treed/stream", "maxsigma", 7, 30, 5)
	treed.Model = &ModelSpec{Name: ModelTreed, LeafSize: 24}
	tr, err = RunReplaySpec(ds, treed)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Iterations() != 5 {
		t.Fatalf("treed: got %d iterations, want 5", tr.Iterations())
	}
}

// shardsScored runs one replay campaign with obs enabled and reports how
// many streamed-pool shards it scored: zero exactly when it did not stream.
func shardsScored(t *testing.T, run func() (*Trajectory, error)) int64 {
	t.Helper()
	obs.Disable()
	reg := obs.NewRegistry()
	obs.Enable(reg, nil)
	defer obs.Disable()
	if _, err := run(); err != nil {
		t.Fatal(err)
	}
	n, _ := reg.CounterValue(obs.MetricPoolShardsScored)
	return n
}

// TestStreamRule pins when runReplay streams: a sequential campaign of the
// built-in MaxSigma over an active pool larger than one shard. One
// candidate fewer, any other policy, a batch campaign even at q = 1, and a
// policy that only wraps MaxSigma all score the materialized pool.
func TestStreamRule(t *testing.T) {
	const nInit, nTest = 8, 10
	run := func(active int, cfg LoopConfig, batch bool) func() (*Trajectory, error) {
		ds := synthDS(nInit+active+nTest, 73)
		part := smallPartition(t, ds, nInit, nTest, 74)
		cfg.MaxIterations, cfg.Seed = 1, 5
		if batch {
			return func() (*Trajectory, error) { return RunReplayBatch(ds, part, cfg, 1, BatchIndependent) }
		}
		return func() (*Trajectory, error) { return RunReplay(ds, part, cfg) }
	}
	if n := shardsScored(t, run(streamShard, LoopConfig{Policy: MaxSigma{}}, false)); n != 0 {
		t.Fatalf("maxsigma over exactly one shard streamed (%d shards scored)", n)
	}
	if n := shardsScored(t, run(streamShard+1, LoopConfig{Policy: MaxSigma{}}, false)); n != 2 {
		t.Fatalf("maxsigma over one shard and one candidate scored %d shards, want 2", n)
	}
	for _, c := range []struct {
		name  string
		cfg   LoopConfig
		batch bool
	}{
		{"rgma", LoopConfig{Policy: RGMA{}, MemLimitMB: 1e9}, false},
		{"minpred", LoopConfig{Policy: MinPred{}}, false},
		{"randuniform", LoopConfig{Policy: RandUniform{}}, false},
		{"batch q=1", LoopConfig{Policy: MaxSigma{}}, true},
		{"wrapped maxsigma", LoopConfig{Policy: struct{ MaxSigma }{}}, false},
	} {
		if n := shardsScored(t, run(streamShard+1, c.cfg, c.batch)); n != 0 {
			t.Fatalf("%s over one shard and one candidate streamed (%d shards scored)", c.name, n)
		}
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

	const jobs = 4400
	ds := synthDS(jobs, 58)
	spec := replaySpec("obs/stream", "maxsigma", 9, 20, 6)
	spec.Model = &ModelSpec{Name: ModelSparse, Inducing: 16}
	if _, err := RunReplaySpec(ds, spec); err != nil {
		t.Fatal(err)
	}

	scored, _ := reg.CounterValue(obs.MetricPoolShardsScored)
	pruned, _ := reg.CounterValue(obs.MetricPoolShardsPruned)
	pool := jobs - 30 - 20 // jobs minus test and init partitions
	nShards := int64((pool + streamShard - 1) / streamShard)
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
	// cache); a materialized sparse campaign — over a pool within one
	// shard — exercises the cache-op counters.
	matSpec := replaySpec("obs/mat", "maxsigma", 9, 20, 6)
	matSpec.Model = &ModelSpec{Name: ModelSparse, Inducing: 16}
	if _, err := RunReplaySpec(synthDS(200, 58), matSpec); err != nil {
		t.Fatal(err)
	}
	extends, _ := reg.CounterValue(obs.Labeled(obs.MetricModelCacheOps, "kind", obs.ModelCacheSparseExtend))
	rebuilds, _ := reg.CounterValue(obs.Labeled(obs.MetricModelCacheOps, "kind", obs.ModelCacheSparseRebuild))
	if extends == 0 || rebuilds == 0 {
		t.Fatalf("materialized sparse campaign recorded extends=%d rebuilds=%d cache ops", extends, rebuilds)
	}
}

// TestStreamSelectEmptyPool: once every candidate is removed, Select
// returns an empty candidate set and id -1 — without generating rows or
// asking the memory surrogate for any — and a policy reports the empty
// candidate set as an error, at every worker count.
func TestStreamSelectEmptyPool(t *testing.T) {
	cost, mem, pool := streamFixture(t, 63, 20, 10)
	for _, w := range streamWorkerCounts() {
		prev := mat.SetWorkers(w)
		probe := &countingModel{Model: mem}
		st := newStreamState(DenseSource{X: pool}, cost, probe, 4)
		st.Select()
		for id := 0; id < pool.Rows(); id++ {
			st.Remove(id)
		}
		probe.reset()
		c, id := st.Select()
		mat.SetWorkers(prev)
		if id != -1 || c.Len() != 0 || c.X != nil {
			t.Fatalf("workers=%d: empty pool gave id %d, %d candidates, X %v", w, id, c.Len(), c.X)
		}
		if n := probe.calls.Load() + probe.laneCalls.Load(); n != 0 {
			t.Fatalf("workers=%d: empty pool asked the memory surrogate %d times", w, n)
		}
		if _, err := (MaxSigma{}).Select(c, rand.New(rand.NewSource(1))); err == nil || !strings.Contains(err.Error(), "empty candidate set") {
			t.Fatalf("workers=%d: policy on the empty pool returned %v", w, err)
		}
	}
}

// oobMaxSigma is maxsigma by name but picks one past the last scored
// candidate.
type oobMaxSigma struct{}

func (oobMaxSigma) Name() string { return "maxsigma" }

func (oobMaxSigma) Select(c *Candidates, _ *rand.Rand) (int, error) { return c.Len(), nil }

// TestStreamedReplayRejectsOutOfRangePick: a pick is checked against the
// scored set, so an out-of-range pick ends the campaign with an error
// instead of a panic. The check is the loop's, whatever the scorer; a
// policy other than the built-in MaxSigma is scored in full, so the pick
// is reported against the whole active pool.
func TestStreamedReplayRejectsOutOfRangePick(t *testing.T) {
	ds := synthDS(200, 71)
	part := smallPartition(t, ds, 10, 40, 21)
	_, err := RunReplay(ds, part, LoopConfig{
		Policy:        oobMaxSigma{},
		MaxIterations: 3,
		Seed:          5,
	})
	want := fmt.Sprintf("out-of-range index %d of %d candidates", len(part.Active), len(part.Active))
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want the out-of-range pick reported against %d candidates", err, len(part.Active))
	}
}
