package engine

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"alamr/internal/gp"
	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// streamWorkerCounts is the axis the worker-invariance tests sweep:
// serial reference, two lanes, four lanes, and whatever this machine
// would use by default, deduplicated and sorted.
func streamWorkerCounts() []int {
	seen := map[int]bool{}
	var out []int
	for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		if w >= 1 && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// streamFamilyFixture is streamFixture generalized over the surrogate
// family: the same synthetic data fit through the exact, sparse, or treed
// model so the parallel scoring path is exercised against every
// PredictInto implementation.
func streamFamilyFixture(t testing.TB, family string, seed int64, n, m int) (cost, mem gp.Model, pool *mat.Dense) {
	t.Helper()
	return streamFamilyFixtureCfg(t, family, gp.Config{Noise: 0.1, NoOptimize: true}, seed, n, m)
}

// streamFamilyFixtureCfg is streamFamilyFixture with the per-model GP
// configuration spelled out (hyperparameter optimization on or off).
func streamFamilyFixtureCfg(t testing.TB, family string, cfg gp.Config, seed int64, n, m int) (cost, mem gp.Model, pool *mat.Dense) {
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
	build := func() gp.Model {
		switch family {
		case "sparse":
			return gp.NewSparse(kernel.NewRBF(0.8, 1), cfg, 16)
		case "treed":
			return gp.NewTreed(kernel.NewRBF(0.8, 1), cfg, 24)
		default:
			return gp.New(kernel.NewRBF(0.8, 1), cfg)
		}
	}
	cost, mem = build(), build()
	if err := cost.Fit(x, yc); err != nil {
		t.Fatal(err)
	}
	if err := mem.Fit(x, ym); err != nil {
		t.Fatal(err)
	}
	pool = mat.NewDense(m, 3, nil)
	for i := 0; i < m; i++ {
		for j := 0; j < 3; j++ {
			pool.Set(i, j, rng.Float64()*2)
		}
	}
	return cost, mem, pool
}

// shortlistRecord snapshots one Select result: ids in order plus all four
// score fields, the exact surface the acceptance criterion pins.
func shortlistRecord(c *Candidates, ids []int) []scoredRow {
	rec := make([]scoredRow, len(ids))
	for i := range ids {
		rec[i] = scoredRow{
			streamEntry: streamEntry{id: ids[i], mu: c.MuCost[i], sigma: c.SigmaCost[i]},
			muM:         c.MuMem[i], sigM: c.SigmaMem[i],
		}
	}
	return rec
}

// runStreamScript executes a deterministic multi-round Select / Remove /
// Append schedule at a given worker count, rebuilding the models from
// scratch so every run starts from an identical posterior, and returns the
// per-round shortlist records. Round 2 refits both models; the cost
// model's moved posterior generation resets the prune bounds.
func runStreamScript(t *testing.T, family, rankName string, approx bool, workers int) [][]scoredRow {
	t.Helper()
	prev := mat.SetWorkers(workers)
	defer mat.SetWorkers(prev)
	cost, mem, pool := streamFamilyFixture(t, family, 77, 40, 500)
	rank, ok := rankerFor(rankName)
	if !ok {
		t.Fatalf("unknown ranker %q", rankName)
	}
	st := NewStreamState(DenseSource{X: pool}, cost, mem, StreamConfig{
		ShardSize: 64, TopK: 8, Approx: approx, RefreshEvery: 3,
		Rank: rank, NonMonotoneRank: !rankerIsMonotone(rankName),
	})
	rng := rand.New(rand.NewSource(99))
	var script [][]scoredRow
	for round := 0; round < 5; round++ {
		c, ids := st.Select()
		script = append(script, shortlistRecord(c, ids))
		pick := ids[0]
		st.Remove(pick)
		y := rng.NormFloat64()
		if err := cost.Append(pool.Row(pick), y); err != nil {
			t.Fatal(err)
		}
		if err := mem.Append(pool.Row(pick), 0.5*y); err != nil {
			t.Fatal(err)
		}
		if round == 2 {
			if err := cost.Refit(); err != nil {
				t.Fatal(err)
			}
			if err := mem.Refit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return script
}

// TestStreamSelectWorkerCountInvariant is the tentpole acceptance pin: for
// every surrogate family, both ranker classes (σ-monotone maxsigma, mean-
// coupled minpred), with pruning on and off, the shortlist — ids, order,
// and all four score fields, bitwise — is identical at every worker count.
// Runs under -race via the race make target, which also makes it the data-
// race pin for the parallel lanes.
func TestStreamSelectWorkerCountInvariant(t *testing.T) {
	counts := streamWorkerCounts()
	for _, family := range []string{"exact", "sparse", "treed"} {
		for _, rankName := range []string{"maxsigma", "minpred"} {
			for _, approx := range []bool{false, true} {
				want := runStreamScript(t, family, rankName, approx, counts[0])
				for _, w := range counts[1:] {
					got := runStreamScript(t, family, rankName, approx, w)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s approx=%v: shortlists at %d workers diverge from %d workers",
							family, rankName, approx, w, counts[0])
					}
				}
			}
		}
	}
}

// runResumeScript is runStreamScript's checkpoint-resume variant: at round
// rebuildAt (if >= 0) the StreamState is discarded and rebuilt from
// scratch — the restore path, which persists only the tombstone set — and
// every tombstone is re-applied before the schedule continues.
func runResumeScript(t *testing.T, rankName string, approx bool, workers, rebuildAt int) [][]scoredRow {
	t.Helper()
	prev := mat.SetWorkers(workers)
	defer mat.SetWorkers(prev)
	cost, mem, pool := streamFamilyFixture(t, "exact", 78, 40, 400)
	rank, _ := rankerFor(rankName)
	cfg := StreamConfig{
		ShardSize: 64, TopK: 8, Approx: approx, RefreshEvery: 1 << 20,
		Rank: rank, NonMonotoneRank: !rankerIsMonotone(rankName),
	}
	st := NewStreamState(DenseSource{X: pool}, cost, mem, cfg)
	rng := rand.New(rand.NewSource(101))
	var tombstones []int
	var script [][]scoredRow
	for round := 0; round < 6; round++ {
		if round == rebuildAt {
			st = NewStreamState(DenseSource{X: pool}, cost, mem, cfg)
			for _, id := range tombstones {
				st.Remove(id)
			}
		}
		c, ids := st.Select()
		script = append(script, shortlistRecord(c, ids))
		pick := ids[0]
		st.Remove(pick)
		tombstones = append(tombstones, pick)
		y := rng.NormFloat64()
		if err := cost.Append(pool.Row(pick), y); err != nil {
			t.Fatal(err)
		}
		if err := mem.Append(pool.Row(pick), 0.5*y); err != nil {
			t.Fatal(err)
		}
	}
	return script
}

// TestStreamStateRebuildMatches: a StreamState rebuilt mid-campaign from
// the tombstone set alone (the checkpoint-resume path — prune bounds and
// the previous k-th rank are not persisted) continues the identical
// shortlist sequence, at every worker count. For the σ-monotone rank this
// holds even with pruning enabled, because pruning is exact there; for the
// mean-coupled rank it holds in exact mode, where the prune threshold is
// never consulted.
func TestStreamStateRebuildMatches(t *testing.T) {
	cases := []struct {
		rankName string
		approx   bool
	}{
		{"maxsigma", true},
		{"minpred", false},
	}
	for _, tc := range cases {
		want := runResumeScript(t, tc.rankName, tc.approx, 1, -1)
		for _, w := range streamWorkerCounts() {
			got := runResumeScript(t, tc.rankName, tc.approx, w, 3)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s approx=%v: resumed run at %d workers diverges from uninterrupted serial run",
					tc.rankName, tc.approx, w)
			}
		}
	}
}

// TestStreamedReplayWorkerCountInvariant runs full streamed replay
// campaigns — hyperopt refits included (HyperoptEvery 5 over 12
// iterations) — and requires the whole trajectory to be identical at every
// worker count. This covers the end-to-end loop: fit, refit with bound
// invalidation, parallel Select, shortlist translation, feedback.
func TestStreamedReplayWorkerCountInvariant(t *testing.T) {
	ds := synthDS(150, 60)
	specs := map[string]CampaignSpec{}
	maxs := replaySpec("wc/maxsigma", "maxsigma", 9, 10, 12)
	maxs.Replay.Pool = &PoolSpec{Shard: 16, TopK: 4, Approx: true, RefreshEvery: 1 << 20}
	specs["maxsigma"] = maxs
	minp := replaySpec("wc/minpred", "minpred", 9, 10, 12)
	minp.Replay.Pool = &PoolSpec{Shard: 16, TopK: 4, Approx: true, RefreshEvery: 4}
	specs["minpred"] = minp

	for name, spec := range specs {
		var want *Trajectory
		for i, w := range streamWorkerCounts() {
			prev := mat.SetWorkers(w)
			got, err := RunReplaySpec(ds, spec)
			mat.SetWorkers(prev)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", name, w, err)
			}
			if i == 0 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: trajectory at %d workers diverges from serial", name, w)
			}
		}
	}
}

// TestDenseSourceFillRows: the one-copy shard fill writes exactly the rows
// a per-row copy would, for ranges at either end and inside, into a larger
// slab whose tail it leaves alone, and after rows have left the pool.
func TestDenseSourceFillRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := mat.NewDense(23, 5, nil)
	for i := range x.RawData() {
		x.RawData()[i] = rng.NormFloat64()
	}
	x = x.RemoveRow(4).RemoveRow(21)
	src := DenseSource{X: x}
	for _, r := range [][2]int{{0, 21}, {0, 1}, {20, 21}, {3, 17}, {7, 7}} {
		dst := mat.NewDense(22, 5, nil)
		for i := range dst.RawData() {
			dst.RawData()[i] = -1
		}
		src.Fill(r[0], r[1], dst)
		for i := 0; i < dst.Rows(); i++ {
			for j := 0; j < 5; j++ {
				want := -1.0
				if i < r[1]-r[0] {
					want = x.At(r[0]+i, j)
				}
				if math.Float64bits(dst.At(i, j)) != math.Float64bits(want) {
					t.Fatalf("rows [%d, %d): dst(%d, %d) = %v, want %v", r[0], r[1], i, j, dst.At(i, j), want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Fill past the last row did not panic")
		}
	}()
	src.Fill(20, 22, mat.NewDense(2, 5, nil))
}

// TestGridSourceSingleAxis: the degenerate one-dimensional grid decodes to
// the axis itself, across unaligned Fill windows.
func TestGridSourceSingleAxis(t *testing.T) {
	ax := []float64{-1, 0, 2.5, 7, 11}
	src := GridSource{Axes: [][]float64{ax}}
	if src.Len() != 5 || src.Dim() != 1 {
		t.Fatalf("Len=%d Dim=%d, want 5 and 1", src.Len(), src.Dim())
	}
	dst := mat.NewDense(3, 1, nil)
	src.Fill(2, 5, dst)
	for i := 0; i < 3; i++ {
		if dst.Row(i)[0] != ax[2+i] {
			t.Fatalf("candidate %d decoded to %v, want %v", 2+i, dst.Row(i)[0], ax[2+i])
		}
	}
}

// TestStreamShardBoundaryAlignment: a pool whose size is an exact multiple
// of the shard size (no tail shard) and one with a single-candidate tail
// shard both produce the exact top-k, serial and parallel.
func TestStreamShardBoundaryAlignment(t *testing.T) {
	rank, _ := rankerFor("maxsigma")
	for _, m := range []int{256, 257} { // 256: boundary exactly at pool end; 257: 1-row tail
		cost, mem, pool := streamFixture(t, 61, 40, m)
		want := bruteTopK(cost, mem, pool, nil, rank, 10)
		for _, w := range streamWorkerCounts() {
			prev := mat.SetWorkers(w)
			st := NewStreamState(DenseSource{X: pool}, cost, mem,
				StreamConfig{ShardSize: 64, TopK: 10, Rank: rank})
			c, ids := st.Select()
			mat.SetWorkers(prev)
			checkShortlist(t, "boundary", c, ids, want)
		}
	}
}

// TestStreamRemoveLastLiveInShard: tombstoning every candidate of a shard
// leaves the other bounds valid — the emptied shard is skipped whole from
// then on, even on a forced full rescore, and the shortlist stays exact.
func TestStreamRemoveLastLiveInShard(t *testing.T) {
	cost, mem, pool := streamFixture(t, 62, 40, 128)
	rank, _ := rankerFor("maxsigma")
	st := NewStreamState(DenseSource{X: pool}, cost, mem, StreamConfig{
		ShardSize: 32, TopK: 6, Approx: true, RefreshEvery: 1 << 20, Rank: rank,
	})
	removed := map[int]bool{}
	c, ids := st.Select() // primes the bounds
	checkShortlist(t, "primed", c, ids, bruteTopK(cost, mem, pool, removed, rank, 6))
	for id := 32; id < 64; id++ { // empty out shard 1 entirely
		st.Remove(id)
		removed[id] = true
	}
	st.invalidateBounds() // force a full rescore: only the emptied shard may skip
	c, ids = st.Select()
	checkShortlist(t, "emptied", c, ids, bruteTopK(cost, mem, pool, removed, rank, 6))
	for id := 32; id < 64; id++ {
		if !isTombstone(st.bounds[id]) {
			t.Fatalf("removed candidate %d bound %g, want a tombstone", id, st.bounds[id])
		}
	}
	if tot := laneTotals(st); tot.pruned != 1 || tot.candScored != int64(st.Live()) {
		t.Fatalf("full rescore pruned %d shards and scored %d candidates, want 1 and %d",
			tot.pruned, tot.candScored, st.Live())
	}
	if st.Live() != 128-32 {
		t.Fatalf("live %d, want %d", st.Live(), 128-32)
	}
	c, ids = st.Select() // the empty shard must skip, not corrupt, the shortlist
	checkShortlist(t, "pruned", c, ids, bruteTopK(cost, mem, pool, removed, rank, 6))
}

// laneTotals sums the lanes' shard and candidate counters of the last
// Select.
func laneTotals(st *StreamState) streamWorker {
	var tot streamWorker
	for _, sw := range st.workers {
		tot.scored += sw.scored
		tot.pruned += sw.pruned
		tot.candScored += sw.candScored
		tot.candPruned += sw.candPruned
	}
	return tot
}
