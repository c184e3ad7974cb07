package engine

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync/atomic"

	"alamr/internal/gp"
	"alamr/internal/mat"
	"alamr/internal/obs"
)

// The streamed candidate pool replaces materialize-everything scoring for
// pools too large to hold per-candidate state. It serves maxsigma, the
// paper's MaxSigma step: candidates are generated and ranked shard by shard
// by the cost surrogate's posterior σ alone, every shard reduces into a
// bounded top-k heap, and the heaps merge into one exact global top-k
// shortlist, for whose ≤k rows alone the memory surrogate is then
// predicted. Peak pool memory is O(workers·shard + k) — per-worker feature
// slabs, μ/σ score vectors, and partial heaps, plus the shortlist — and 8
// bytes per candidate for its prune bound, instead of the O(m·n) a
// ScoringCache pins or the O(m) feature and score arrays a materialized
// pass allocates.
//
// Shard scoring is parallel: Select dispatches W = min(mat.Workers(),
// shards) worker lanes over the internal/mat pool, each lane claiming
// shards from a shared atomic cursor and scoring them serially (through
// gp.Model.PredictInto — the lanes *are* the parallelism) into its own
// feature slab, score buffers and bounded heap. A lane gathers a claimed
// shard's rows from the CandidateSource itself, in one pass. The shortlist
// is independent of scheduling at every worker count: the top-k under the
// strict total order (σ desc, id asc) is a unique set, each candidate's
// scores are computed in full by exactly one lane (memory: by the one
// post-merge Predict) with a floating-point evaluation order that depends on
// neither the lane nor the row's position in the batch, and the final merge
// sorts the union of the lanes' heaps under that same order — so which lane
// scored which shard cannot change the result. mat.SetWorkers(1) degrades to
// the fully serial reference path.
//
// Every Select prunes. The pool keeps one bound per candidate — its σ the
// last time it was scored, +Inf until then — and inside every claimed shard
// generates and predicts only the live candidates whose bound is not
// strictly below the prune threshold; a shard with no such candidate is
// skipped whole. The survivors are gathered from the source into the front
// of the lane's slab in id order, and per-row prediction arithmetic does not
// depend on row position, so their scores are bitwise what a full-shard pass
// gives. A candidate's posterior σ never rises while observations are
// appended under fixed hyperparameters, so a stale bound is a true upper
// bound, and the threshold is a shared monotone lower bound on the final
// k-th σ: seeded before the lanes start by re-scoring the previous Select's
// top k+1 survivors (k+1 so that one pick still leaves k), then raised by
// any lane whose local heap holds k entries, via an atomic CAS-max. A stale
// read of the bound is always a smaller value, so racing lanes can only
// prune less, never more — pruning stays exact under any interleaving, even
// though *which* candidates get pruned may vary with the schedule. Bounds
// reset whenever the cost model's posterior generation moves
// (gp.Model.Generation: a refit, a sparse re-projection, a treed re-split),
// the only events that can raise σ. DESIGN.md §Surrogate scaling states the
// bound precisely.

// CandidateSource yields candidate feature rows on demand, so a pool can
// exist without ever materializing m×d storage. Fill must be safe for
// concurrent use with distinct dst buffers: the parallel Select's lanes
// call it directly (both built-in sources are read-only during Fill).
type CandidateSource interface {
	// Len is the total number of candidates.
	Len() int
	// Dim is the feature dimensionality.
	Dim() int
	// Fill writes rows [lo, hi), row-major, into the first (hi-lo)·Dim()
	// values of dst.
	Fill(lo, hi int, dst []float64)
}

// DenseSource adapts an already-materialized feature matrix (e.g. the
// replay dataset, which is resident regardless) to CandidateSource.
type DenseSource struct{ X *mat.Dense }

// Len implements CandidateSource.
func (s DenseSource) Len() int { return s.X.Rows() }

// Dim implements CandidateSource.
func (s DenseSource) Dim() int { return s.X.Cols() }

// Fill implements CandidateSource. Rows [lo, hi) of a row-major matrix are
// one contiguous run, so the range is a single copy.
func (s DenseSource) Fill(lo, hi int, dst []float64) {
	d := s.X.Cols()
	if lo < 0 || hi > s.X.Rows() || (hi-lo)*d > len(dst) {
		panic(fmt.Sprintf("engine: DenseSource.Fill rows [%d, %d) of %dx%d into %d values",
			lo, hi, s.X.Rows(), d, len(dst)))
	}
	copy(dst, s.X.RawData()[lo*d:hi*d])
}

// GridSource is the lazy Cartesian grid: candidate i decodes mixed-radix
// into one coordinate per axis. A 10⁶-candidate grid occupies the axis
// slices only — this is the source the scale benchmarks stream from.
type GridSource struct{ Axes [][]float64 }

// Len implements CandidateSource.
func (s GridSource) Len() int {
	n := 1
	for _, ax := range s.Axes {
		n *= len(ax)
	}
	return n
}

// Dim implements CandidateSource.
func (s GridSource) Dim() int { return len(s.Axes) }

// Fill implements CandidateSource. The last axis varies fastest.
func (s GridSource) Fill(lo, hi int, dst []float64) {
	d := len(s.Axes)
	for i := lo; i < hi; i++ {
		row := dst[(i-lo)*d : (i-lo+1)*d]
		rem := i
		for j := d - 1; j >= 0; j-- {
			ax := s.Axes[j]
			row[j] = ax[rem%len(ax)]
			rem /= len(ax)
		}
	}
}

// StreamConfig tunes StreamState; the zero value gets defaults.
type StreamConfig struct {
	ShardSize int // candidates per slab (default 4096)
	TopK      int // shortlist size (default 64)
}

func (c *StreamConfig) setDefaults() {
	if c.ShardSize <= 0 {
		c.ShardSize = 4096
	}
	if c.TopK <= 0 {
		c.TopK = 64
	}
}

// streamEntry is one candidate's source id and cost posterior.
type streamEntry struct {
	id        int
	mu, sigma float64
}

// better orders entries like a first-max full scan: higher σ wins, ties go
// to the smaller source id.
func (e streamEntry) better(o streamEntry) bool {
	if e.sigma != o.sigma {
		return e.sigma > o.sigma
	}
	return e.id < o.id
}

// streamWorker is one scoring lane's private state, reused across Select
// calls: a one-shard feature slab, cost μ/σ buffers, the source ids of the
// rows gathered into the slab, a bounded partial heap, and the lane's shard
// and candidate counters (aggregated into the obs totals after the merge).
type streamWorker struct {
	xs        []float64
	mu, sigma []float64
	ids       []int
	heap      []streamEntry

	scored, pruned         int64 // shards
	candScored, candPruned int64 // live candidates
}

// kthBound is the shared monotone lower bound on the final k-th shortlist
// σ, published across lanes with a CAS-max. Any lane whose local heap holds
// k entries knows the merged top-k reaches at least its k-th best σ, so
// raising the bound to that value is always sound; a stale (lower) read by
// another lane only prunes less.
type kthBound struct{ bits atomic.Uint64 }

func (b *kthBound) store(v float64) { b.bits.Store(math.Float64bits(v)) }

func (b *kthBound) load() float64 { return math.Float64frombits(b.bits.Load()) }

// raise lifts the bound to v if v is higher; concurrent raises keep the
// maximum. Comparison is on float values, not bit patterns.
func (b *kthBound) raise(v float64) {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// tombstone is a removed candidate's bound. NaN fails every comparison, so
// the survivor test b >= lim drops tombstones without a separate lookup.
var tombstone = math.NaN()

func isTombstone(b float64) bool { return b != b }

// StreamState is a streamed candidate pool usable across AL iterations: it
// keeps one prune bound per candidate (tombstones included) and produces
// one exact top-k shortlist per Select call.
// Select and Remove must not overlap (one selection loop owns the state);
// Select parallelizes internally.
type StreamState struct {
	src       CandidateSource
	cost, mem gp.Model
	cfg       StreamConfig

	// bounds[id] is candidate id's last scored σ: +Inf until scored,
	// tombstone once removed. 8 bytes per candidate.
	bounds []float64
	live   int
	gen    uint64 // cost posterior generation the bounds hold under
	top    []int  // previous Select's top k+1 ids (seed bound)

	workers []*streamWorker
}

// NewStreamState builds a streamed pool over src ranked by the fitted cost
// surrogate's σ, with mem predicted for the shortlist.
func NewStreamState(src CandidateSource, cost, mem gp.Model, cfg StreamConfig) *StreamState {
	cfg.setDefaults()
	n := src.Len()
	st := &StreamState{
		src:    src,
		cost:   cost,
		mem:    mem,
		cfg:    cfg,
		bounds: make([]float64, n),
		live:   n,
		gen:    cost.Generation(),
	}
	for i := range st.bounds {
		st.bounds[i] = math.Inf(1) // never prune an unscored candidate
	}
	return st
}

// Live reports the number of non-removed candidates.
func (st *StreamState) Live() int { return st.live }

// Remove tombstones candidate id (a source index). Removal only shrinks
// the set a shortlist is drawn from, so the other candidates' bounds stay
// valid; a shard whose last live candidate goes is skipped from then on.
func (st *StreamState) Remove(id int) {
	if !isTombstone(st.bounds[id]) {
		st.bounds[id] = tombstone
		st.live--
	}
}

// invalidateBounds resets every live candidate's prune bound to +Inf, so
// the coming Select rescores the whole pool. Select calls it whenever the
// cost model's posterior generation has moved (a refit, a sparse
// re-projection, a treed re-split — the changes that can raise σ).
func (st *StreamState) invalidateBounds() {
	for i, b := range st.bounds {
		if !isTombstone(b) {
			st.bounds[i] = math.Inf(1)
		}
	}
}

// pushBounded maintains a bounded worst-at-root heap of the best k entries.
func pushBounded(h []streamEntry, e streamEntry, k int) []streamEntry {
	if len(h) < k {
		h = append(h, e)
		// Sift up: parent must be worse than child (root = worst).
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[i].better(h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		return h
	}
	if !e.better(h[0]) {
		return h
	}
	h[0] = e
	// Sift down: push the new root toward the leaves past any worse child.
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h) && h[i].better(h[l]) && h[worst].better(h[l]) {
			worst = l
		}
		if r < len(h) && h[i].better(h[r]) && h[worst].better(h[r]) {
			worst = r
		}
		if worst == i {
			break
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
	return h
}

// heapKth returns the k-th best σ held in a lane heap of capacity k+1, or
// false while it holds fewer than k entries. A full heap's root is its
// (k+1)-th best, so the k-th is the worse of the root's children.
func heapKth(h []streamEntry, k int) (float64, bool) {
	switch {
	case len(h) < k:
		return 0, false
	case len(h) == k:
		return h[0].sigma, true
	}
	c := h[1]
	if len(h) > 2 && c.better(h[2]) {
		c = h[2]
	}
	return c.sigma, true
}

// ensureWorkers sizes the lane pool to at least w, allocating each lane's
// slab and buffers once and reusing them across Select calls.
func (st *StreamState) ensureWorkers(w int) {
	shard := st.cfg.ShardSize
	for len(st.workers) < w {
		st.workers = append(st.workers, &streamWorker{
			xs:    make([]float64, shard*st.src.Dim()),
			mu:    make([]float64, shard),
			sigma: make([]float64, shard),
			ids:   make([]int, 0, shard),
		})
	}
}

// shardRange is shard s's source-id window [lo, hi).
func (st *StreamState) shardRange(s int) (lo, hi int) {
	lo = s * st.cfg.ShardSize
	return lo, min(lo+st.cfg.ShardSize, st.src.Len())
}

// survives reports whether any bound reaches lim: some live candidate of
// the window may still enter the shortlist. Strict <: ties are never
// pruned, preserving first-max order.
func survives(bounds []float64, lim float64) bool {
	for _, b := range bounds {
		if b >= lim {
			return true
		}
	}
	return false
}

// countLive counts the non-tombstoned bounds of a window.
func countLive(bounds []float64) int64 {
	var n int64
	for _, b := range bounds {
		if !isTombstone(b) {
			n++
		}
	}
	return n
}

// gather writes the feature rows of ids into dst, row-major and in the
// order given, with one Fill per maximal run of consecutive ids.
func (st *StreamState) gather(ids []int, dst []float64) {
	dim := st.src.Dim()
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[j-1]+1 {
			j++
		}
		st.src.Fill(ids[i], ids[j-1]+1, dst[i*dim:])
		i = j
	}
}

// scoreShard gathers the shard's surviving candidates — live, with a bound
// not strictly below the current threshold — into the lane's slab in id
// order, predicts them through the cost surrogate, reduces them into the
// lane's bounded heap, records their σ as their new bounds, and raises the
// shared threshold once the lane's heap holds k entries. Writes touch
// lane-private state plus bounds[lo:hi], which only this lane (the shard's
// claimant) reads or writes during the call.
func (st *StreamState) scoreShard(w *streamWorker, lo, hi int, lim *kthBound) {
	th := lim.load()
	w.ids = w.ids[:0]
	for i, b := range st.bounds[lo:hi] {
		if isTombstone(b) {
			continue
		}
		if b < th {
			// σ was below the threshold the last time it was scored, and it
			// cannot have risen since.
			w.candPruned++
			continue
		}
		w.ids = append(w.ids, lo+i)
	}
	rows := len(w.ids)
	if rows == 0 {
		w.pruned++
		return
	}
	dim := st.src.Dim()
	st.gather(w.ids, w.xs)
	obs.PoolShardsInflight.Add(1)
	sp := obs.SpanShardScore.Start()
	xs := mat.NewDense(rows, dim, w.xs[:rows*dim])
	mu, sigma := w.mu[:rows], w.sigma[:rows]
	st.cost.PredictInto(xs, mu, sigma)
	k := st.cfg.TopK
	for i, id := range w.ids {
		st.bounds[id] = sigma[i]
		if math.IsNaN(sigma[i]) {
			st.bounds[id] = math.Inf(1) // a NaN σ must not read as a tombstone
		}
		w.heap = pushBounded(w.heap, streamEntry{id: id, mu: mu[i], sigma: sigma[i]}, k+1)
	}
	w.scored++
	w.candScored += int64(rows)
	if kth, ok := heapKth(w.heap, k); ok {
		lim.raise(kth)
	}
	sp.End()
	obs.PoolShardsInflight.Add(-1)
}

// scoreLoop is one lane's Select body: claim shards off the shared cursor,
// skip (ungathered) every shard none of whose live candidates reaches the
// prune threshold, and score the rest.
func (st *StreamState) scoreLoop(w *streamWorker, next *atomic.Int64, lim *kthBound, nShards int) {
	for {
		s := int(next.Add(1)) - 1
		if s >= nShards {
			return
		}
		lo, hi := st.shardRange(s)
		if !survives(st.bounds[lo:hi], lim.load()) {
			w.pruned++
			w.candPruned += countLive(st.bounds[lo:hi])
			continue
		}
		st.scoreShard(w, lo, hi, lim)
	}
}

// seedBound re-scores the previous Select's top k+1 candidates that are
// still live and returns the k-th best of their current σ: k live
// candidates reach at least that σ, so the final k-th does too, whatever
// the posterior did since. Holding k+1 lets one pick still leave k. -Inf
// (never prunes) when fewer than k survive.
func (st *StreamState) seedBound() float64 {
	k := st.cfg.TopK
	var ids []int
	for _, id := range st.top {
		if !isTombstone(st.bounds[id]) {
			ids = append(ids, id)
		}
	}
	if len(ids) < k {
		return math.Inf(-1)
	}
	_, sigma := st.cost.Predict(st.fillRows(ids))
	sort.Sort(sort.Reverse(sort.Float64Slice(sigma)))
	return sigma[k-1]
}

// Select ranks the pool by cost σ shard by shard — fanned out over
// min(Workers, shards) lanes, see the package comment for the determinism
// argument — and returns the top-k shortlist as a Candidates block plus the
// shortlist's source ids, both ordered by (σ desc, id asc) so a first-max
// maxsigma scan picks the same candidate a full-pool scan would. The
// Candidates' slices are freshly allocated (size k); the X matrix holds the
// shortlist rows only, nil when no candidate is live.
func (st *StreamState) Select() (*Candidates, []int) {
	n := st.src.Len()
	shard := st.cfg.ShardSize
	k := st.cfg.TopK
	nShards := (n + shard - 1) / shard

	// -Inf never prunes (strict <). Reset bounds are all +Inf, so after a
	// generation move a seed could prune nothing.
	var lim kthBound
	if g := st.cost.Generation(); g != st.gen {
		st.invalidateBounds()
		st.gen = g
		lim.store(math.Inf(-1))
	} else {
		lim.store(st.seedBound())
	}

	w := mat.Workers()
	if w > nShards {
		w = nShards
	}
	if w < 1 {
		w = 1
	}
	st.ensureWorkers(w)
	for _, sw := range st.workers[:w] {
		sw.heap = sw.heap[:0]
		sw.scored, sw.pruned = 0, 0
		sw.candScored, sw.candPruned = 0, 0
	}
	var next atomic.Int64
	mat.ParallelWorkers(w, func(lane int) {
		st.scoreLoop(st.workers[lane], &next, &lim, nShards)
	})

	var scored, pruned, candScored, candPruned int64
	for _, sw := range st.workers[:w] {
		scored += sw.scored
		pruned += sw.pruned
		candScored += sw.candScored
		candPruned += sw.candPruned
	}
	obs.PoolShardsScored.Add(scored)
	obs.PoolShardsPruned.Add(pruned)
	obs.PoolCandidatesScored.Add(candScored)
	obs.PoolCandidatesPruned.Add(candPruned)
	obs.PoolStreamLive.Set(float64(st.live))
	if r := obs.Default(); r != nil {
		for lane, sw := range st.workers[:w] {
			if sw.scored > 0 {
				r.Counter(obs.Labeled(obs.MetricPoolWorkerShards, obs.LabelWorker, strconv.Itoa(lane)),
					"streamed-pool shards scored, by worker lane").Add(sw.scored)
			}
		}
	}

	// Merge: the union of the lanes' bounded heaps contains the global
	// top-k (each lane kept the best k+1 of its own survivors), and
	// sorting under the strict total order recovers it independent of
	// which lane held what. The (k+1)-th entry may depend on the schedule
	// (pruning only guarantees the top k), so it feeds the next seed
	// bound, never the output.
	var out []streamEntry
	for _, sw := range st.workers[:w] {
		out = append(out, sw.heap...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].better(out[j]) })
	st.top = st.top[:0]
	for _, e := range out[:min(len(out), k+1)] {
		st.top = append(st.top, e.id)
	}
	if len(out) > k {
		out = out[:k]
	}

	ids := make([]int, len(out))
	c := &Candidates{
		MuCost:      make([]float64, len(out)),
		SigmaCost:   make([]float64, len(out)),
		MemLimitLog: math.Inf(1),
	}
	for i, e := range out {
		ids[i] = e.id
		c.MuCost[i], c.SigmaCost[i] = e.mu, e.sigma
	}
	if len(ids) > 0 {
		c.X = st.fillRows(ids)
		c.MuMem, c.SigmaMem = st.mem.Predict(c.X)
	}
	return c, ids
}

// fillRows generates the feature rows of the given source ids, in order.
func (st *StreamState) fillRows(ids []int) *mat.Dense {
	xs := mat.NewDense(len(ids), st.src.Dim(), nil)
	st.gather(ids, xs.RawData())
	return xs
}

// streamScorer adapts a StreamState to the scorer surface: the policy sees
// the shortlist as its candidate set, and a candidate's stable id is its
// source id.
type streamScorer struct {
	st *StreamState

	shortIDs []int      // shortlist position → source id, from the last Select
	shortX   *mat.Dense // shortlist feature rows, from the last Select
}

func newStreamScorer(cost, mem gp.Model, x *mat.Dense, spec *PoolSpec) *streamScorer {
	var cfg StreamConfig
	if spec != nil {
		cfg = StreamConfig{ShardSize: spec.Shard, TopK: spec.TopK}
	}
	return &streamScorer{st: NewStreamState(DenseSource{X: x}, cost, mem, cfg)}
}

// checkStreamedPolicy rejects every policy but maxsigma for the streamed
// pool, whose shortlist is the top k by cost σ: only a pure σ argmax picks
// the same candidate from it as from the whole pool. The check is by name.
func checkStreamedPolicy(name string) error {
	if normName(name) != "maxsigma" {
		return fmt.Errorf("engine: the streamed pool serves maxsigma only, got policy %q", name)
	}
	return nil
}

func (s *streamScorer) Candidates(memLimitLog float64) *Candidates {
	c, ids := s.st.Select()
	c.MemLimitLog = memLimitLog
	s.shortIDs = ids
	s.shortX = c.X
	return c
}

// row returns the features of shortlist pick p (valid until the next
// Candidates call, matching the loop's consume-before-Remove contract).
func (s *streamScorer) row(p int) []float64 { return s.shortX.Row(p) }

// ID maps shortlist pick p to its source id.
func (s *streamScorer) ID(p int) int { return s.shortIDs[p] }

// Remove tombstones source id in the stream state.
func (s *streamScorer) Remove(id int) { s.st.Remove(id) }

// Len reports the live candidate count.
func (s *streamScorer) Len() int { return s.st.Live() }

// FidelityGains is unavailable on the shortlist path: the streamed pool
// serves maxsigma only, which consumes no gains.
func (s *streamScorer) FidelityGains() []float64 { return nil }

func (s *streamScorer) Close() {}
