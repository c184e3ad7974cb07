package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
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
func runStreamScript(t *testing.T, family string, workers int) [][]scoredRow {
	t.Helper()
	prev := mat.SetWorkers(workers)
	defer mat.SetWorkers(prev)
	cost, mem, pool := streamFamilyFixture(t, family, 77, 40, 500)
	st := NewStreamState(DenseSource{X: pool}, cost, mem, StreamConfig{ShardSize: 64, TopK: 8})
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
// every surrogate family the shortlist — ids, order, and all four score
// fields, bitwise — is identical at every worker count, across pruned
// passes and the full pass after a refit. Runs under -race via the race
// make target, which also makes it the data-race pin for the parallel
// lanes.
func TestStreamSelectWorkerCountInvariant(t *testing.T) {
	counts := streamWorkerCounts()
	for _, family := range []string{"exact", "sparse", "treed"} {
		want := runStreamScript(t, family, counts[0])
		for _, w := range counts[1:] {
			if got := runStreamScript(t, family, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: shortlists at %d workers diverge from %d workers", family, w, counts[0])
			}
		}
	}
}

// runResumeScript is runStreamScript's checkpoint-resume variant: at round
// rebuildAt (if >= 0) the StreamState is discarded and rebuilt from
// scratch — the restore path, which persists only the tombstone set — and
// every tombstone is re-applied before the schedule continues.
func runResumeScript(t *testing.T, workers, rebuildAt int) [][]scoredRow {
	t.Helper()
	prev := mat.SetWorkers(workers)
	defer mat.SetWorkers(prev)
	cost, mem, pool := streamFamilyFixture(t, "exact", 78, 40, 400)
	cfg := StreamConfig{ShardSize: 64, TopK: 8}
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
// the previous top k+1 are not persisted) continues the identical shortlist
// sequence, at every worker count, because pruning is exact.
func TestStreamStateRebuildMatches(t *testing.T) {
	want := runResumeScript(t, 1, -1)
	for _, w := range streamWorkerCounts() {
		if got := runResumeScript(t, w, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("resumed run at %d workers diverges from uninterrupted serial run", w)
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
	spec := replaySpec("wc/maxsigma", "maxsigma", 9, 10, 12)
	spec.Replay.Pool = &PoolSpec{Shard: 16, TopK: 4}

	var want *Trajectory
	for i, w := range streamWorkerCounts() {
		prev := mat.SetWorkers(w)
		got, err := RunReplaySpec(ds, spec)
		mat.SetWorkers(prev)
		if err != nil {
			t.Fatalf("at %d workers: %v", w, err)
		}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trajectory at %d workers diverges from serial", w)
		}
	}
}

// TestDenseSourceFillRows: Rows lends a range of the matrix in place —
// exactly the rows a per-row read gives, for ranges at either end and
// inside, and after rows have left the pool — without writing the buffer
// it is handed, and capped so an append cannot write past the range.
func TestDenseSourceFillRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := mat.NewDense(23, 5, nil)
	for i := range x.RawData() {
		x.RawData()[i] = rng.NormFloat64()
	}
	x = x.RemoveRow(4).RemoveRow(21)
	src := DenseSource{X: x}
	buf := make([]float64, 22*5)
	for i := range buf {
		buf[i] = -1
	}
	for _, r := range [][2]int{{0, 21}, {0, 1}, {20, 21}, {3, 17}, {7, 7}} {
		rows := src.Rows(r[0], r[1], buf)
		if len(rows) != (r[1]-r[0])*5 || cap(rows) != len(rows) {
			t.Fatalf("rows [%d, %d): len %d cap %d, want %d", r[0], r[1], len(rows), cap(rows), (r[1]-r[0])*5)
		}
		if len(rows) > 0 && &rows[0] != &x.RawData()[r[0]*5] {
			t.Fatalf("rows [%d, %d) are not the matrix's own", r[0], r[1])
		}
		for i := 0; i < r[1]-r[0]; i++ {
			for j := 0; j < 5; j++ {
				if got, want := rows[i*5+j], x.At(r[0]+i, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("rows [%d, %d): (%d, %d) = %v, want %v", r[0], r[1], i, j, got, want)
				}
			}
		}
	}
	for i, v := range buf {
		if v != -1 {
			t.Fatalf("Rows wrote buf[%d] = %v", i, v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Rows past the last row did not panic")
		}
	}()
	src.Rows(20, 22, buf)
}

// recordingSource wraps a CandidateSource and counts how often each row is
// read. The lanes call Rows concurrently, so the counts are guarded.
type recordingSource struct {
	CandidateSource
	mu    sync.Mutex
	reads map[int]int
}

func (s *recordingSource) Rows(lo, hi int, buf []float64) []float64 {
	s.mu.Lock()
	for id := lo; id < hi; id++ {
		s.reads[id]++
	}
	s.mu.Unlock()
	return s.CandidateSource.Rows(lo, hi, buf)
}

// TestStreamGathersOnlySurvivors: a primed Select reads from
// its source only the rows it predicts. Apart from the seed bound's k rows
// and the shortlist's rows, it reads as many rows as the lanes scored
// candidates; it never reads a tombstoned candidate or one whose bound is
// below the seeded threshold; and the shortlist stays the exact top-k, at
// every worker count.
func TestStreamGathersOnlySurvivors(t *testing.T) {
	const k = 8
	for _, w := range streamWorkerCounts() {
		tag := fmt.Sprintf("workers=%d", w)
		prev := mat.SetWorkers(w)
		cost, mem, pool := streamFixture(t, 64, 40, 700)
		src := &recordingSource{CandidateSource: DenseSource{X: pool}, reads: map[int]int{}}
		st := NewStreamState(src, cost, mem, StreamConfig{ShardSize: 64, TopK: k})
		_, ids := st.Select() // primes the bounds and the seed's top k+1
		top := map[int]bool{}
		for _, id := range st.top {
			top[id] = true
		}
		// Tombstone the winner, which leaves the seed k live candidates, and
		// every fifth candidate outside the seed set.
		removed := map[int]bool{}
		for id := 0; id < pool.Rows(); id++ {
			if id == ids[0] || (id%5 == 0 && !top[id]) {
				st.Remove(id)
				removed[id] = true
			}
		}
		if err := cost.Append(pool.Row(ids[0]), 0.3); err != nil {
			t.Fatal(err)
		}
		if err := mem.Append(pool.Row(ids[0]), 0.1); err != nil {
			t.Fatal(err)
		}
		th := st.seedBound() // the threshold the next Select starts from
		bounds := append([]float64(nil), st.bounds...)
		src.reads = map[int]int{}
		c, ids := st.Select()
		mat.SetWorkers(prev)
		checkShortlist(t, tag, c, ids, bruteTopK(cost, mem, pool, removed, k))

		var rows int64
		for id, n := range src.reads {
			if removed[id] {
				t.Fatalf("%s: tombstoned candidate %d was read", tag, id)
			}
			if bounds[id] < th {
				t.Fatalf("%s: candidate %d was read although its bound %g is below the seeded threshold %g",
					tag, id, bounds[id], th)
			}
			rows += int64(n)
		}
		tot := laneTotals(st)
		if tot.candPruned == 0 {
			t.Fatalf("%s: the pass pruned no candidate on its bound", tag)
		}
		if want := tot.candScored + k + int64(len(ids)); rows != want {
			t.Fatalf("%s: %d rows read, want %d scored + %d seed + %d shortlist",
				tag, rows, tot.candScored, k, len(ids))
		}
	}
}

// rowRecorder wraps a cost model and records where the rows of every
// matrix PredictInto is handed start.
type rowRecorder struct {
	gp.Model
	mu    sync.Mutex
	first []*float64
}

func (m *rowRecorder) PredictInto(xs *mat.Dense, mean, std []float64) {
	m.mu.Lock()
	m.first = append(m.first, &xs.RawData()[0])
	m.mu.Unlock()
	m.Model.PredictInto(xs, mean, std)
}

// TestStreamFullPassLendsDenseRows: a full pass over a DenseSource — the
// first Select, and the first after a refit — hands PredictInto each
// shard's rows of the source's own matrix, not a copy, at every worker
// count.
func TestStreamFullPassLendsDenseRows(t *testing.T) {
	const shard = 64
	for _, w := range streamWorkerCounts() {
		prev := mat.SetWorkers(w)
		cost, mem, pool := streamFixture(t, 64, 40, 300)
		rec := &rowRecorder{Model: cost}
		st := NewStreamState(DenseSource{X: pool}, rec, mem, StreamConfig{ShardSize: shard, TopK: 8})
		want := map[*float64]bool{}
		for lo := 0; lo < pool.Rows(); lo += shard {
			want[&pool.RawData()[lo*pool.Cols()]] = true
		}
		for pass := 0; pass < 2; pass++ {
			rec.first = nil
			st.Select()
			if len(rec.first) != len(want) {
				t.Fatalf("workers=%d pass %d: %d shard predictions, want %d", w, pass, len(rec.first), len(want))
			}
			for _, p := range rec.first {
				if !want[p] {
					t.Fatalf("workers=%d pass %d: a shard was predicted from a copy of its rows", w, pass)
				}
			}
			if err := cost.Refit(); err != nil { // moves the generation: the next pass is full
				t.Fatal(err)
			}
		}
		mat.SetWorkers(prev)
	}
}

// TestGridSourceSingleAxis: the degenerate one-dimensional grid decodes to
// the axis itself, across unaligned Rows windows.
func TestGridSourceSingleAxis(t *testing.T) {
	ax := []float64{-1, 0, 2.5, 7, 11}
	src := GridSource{Axes: [][]float64{ax}}
	if src.Len() != 5 || src.Dim() != 1 {
		t.Fatalf("Len=%d Dim=%d, want 5 and 1", src.Len(), src.Dim())
	}
	dst := src.Rows(2, 5, make([]float64, 4))
	if len(dst) != 3 {
		t.Fatalf("3 rows decoded to %d values", len(dst))
	}
	for i := 0; i < 3; i++ {
		if dst[i] != ax[2+i] {
			t.Fatalf("candidate %d decoded to %v, want %v", 2+i, dst[i], ax[2+i])
		}
	}
}

// TestStreamShardBoundaryAlignment: a pool whose size is an exact multiple
// of the shard size (no tail shard) and one with a single-candidate tail
// shard both produce the exact top-k, serial and parallel.
func TestStreamShardBoundaryAlignment(t *testing.T) {
	for _, m := range []int{256, 257} { // 256: boundary exactly at pool end; 257: 1-row tail
		cost, mem, pool := streamFixture(t, 61, 40, m)
		want := bruteTopK(cost, mem, pool, nil, 10)
		for _, w := range streamWorkerCounts() {
			prev := mat.SetWorkers(w)
			st := NewStreamState(DenseSource{X: pool}, cost, mem, StreamConfig{ShardSize: 64, TopK: 10})
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
	st := NewStreamState(DenseSource{X: pool}, cost, mem, StreamConfig{ShardSize: 32, TopK: 6})
	removed := map[int]bool{}
	c, ids := st.Select() // primes the bounds
	checkShortlist(t, "primed", c, ids, bruteTopK(cost, mem, pool, removed, 6))
	for id := 32; id < 64; id++ { // empty out shard 1 entirely
		st.Remove(id)
		removed[id] = true
	}
	st.invalidateBounds() // force a full rescore: only the emptied shard may skip
	c, ids = st.Select()
	checkShortlist(t, "emptied", c, ids, bruteTopK(cost, mem, pool, removed, 6))
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
	checkShortlist(t, "pruned", c, ids, bruteTopK(cost, mem, pool, removed, 6))
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
