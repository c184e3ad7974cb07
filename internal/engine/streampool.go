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
// pools too large to hold per-candidate state: candidates are generated
// and ranked shard by shard through the cost surrogate alone (a RankFunc
// cannot read memory), every shard reduces into a bounded top-k heap, and
// the heaps merge into one exact global top-k shortlist, for whose ≤k rows
// alone the memory surrogate is then predicted. Peak pool memory is
// O(workers·shard + k) — per-worker feature slabs, μ/σ score vectors, and
// partial heaps, plus the shortlist — and 8 bytes per candidate for its
// prune bound, instead of the O(m·n) a ScoringCache pins or the O(m)
// feature and score arrays a materialized pass allocates.
//
// Shard scoring is parallel: Select dispatches W = min(mat.Workers(),
// shards) worker lanes over the internal/mat pool, each lane claiming
// shards from a shared atomic cursor, scoring them serially (through
// gp.Model.PredictInto — the lanes *are* the parallelism) into its own
// slabs and bounded heap, while a per-lane filler goroutine generates the next
// claimed shard into the other half of a double-buffered slab so
// CandidateSource.Fill cost overlaps scoring. The shortlist is independent
// of scheduling at every worker count: the top-k under the strict total
// order (rank desc, id asc) is a unique set, each candidate's scores are
// computed in full by exactly one lane (memory: by the one post-merge
// Predict) with a floating-point evaluation order that depends on neither
// the lane nor the row's position in the batch, and
// the final merge sorts the union of the lanes' heaps under that same
// order — so which lane scored which shard cannot change the result.
// mat.SetWorkers(1) degrades to the fully serial reference path.
//
// The optional approximate mode keeps one prune bound per candidate — its
// rank the last time it was scored, +Inf until then — and inside every
// claimed shard predicts only the live candidates whose bound is not
// strictly below the prune threshold; a shard with no such candidate is
// skipped without being generated. The survivors are compacted to the
// front of the lane's slab, and per-row prediction arithmetic does not
// depend on row position, so their scores are bitwise what a full-shard
// pass gives. For σ-monotone ranks (maxsigma: a candidate's posterior σ
// never rises while observations are appended under fixed
// hyperparameters) a stale bound is a true upper bound, and the threshold
// is a shared monotone lower bound on the final k-th rank: seeded before
// the lanes start by re-scoring the previous Select's top k+1 survivors
// (k+1 so that one pick still leaves k), then raised by any lane whose
// local heap holds k entries, via an atomic CAS-max. A stale read of the
// bound is always a smaller value, so racing lanes can only prune less,
// never more — pruning stays exact under any interleaving, even though
// *which* candidates get pruned may vary with the schedule. Bounds are
// cost ranks, so they reset whenever the cost model's posterior generation
// moves (gp.Model.Generation: a refit, a sparse re-projection, a treed
// re-split), the only events that can raise σ. For mean-coupled ranks
// (minpred) a mid-call bound is not valid and a schedule-dependent prune
// set would make the output depend on the worker count, so the prune
// threshold is instead the previous Select's final k-th rank —
// deterministic by construction, boundedly stale, with RefreshEvery
// forcing a full un-pruned rescore every k-th call. DESIGN.md §Surrogate
// scaling states both bounds precisely.

// CandidateSource yields candidate feature rows on demand, so a pool can
// exist without ever materializing m×d storage. Fill must be safe for
// concurrent use with distinct dst buffers: the parallel Select calls it
// from per-worker filler goroutines (both built-in sources are read-only
// during Fill).
type CandidateSource interface {
	// Len is the total number of candidates.
	Len() int
	// Dim is the feature dimensionality.
	Dim() int
	// Fill writes rows [lo, hi) into the first hi-lo rows of dst.
	Fill(lo, hi int, dst *mat.Dense)
}

// DenseSource adapts an already-materialized feature matrix (e.g. the
// replay dataset, which is resident regardless) to CandidateSource.
type DenseSource struct{ X *mat.Dense }

// Len implements CandidateSource.
func (s DenseSource) Len() int { return s.X.Rows() }

// Dim implements CandidateSource.
func (s DenseSource) Dim() int { return s.X.Cols() }

// Fill implements CandidateSource. Rows [lo, hi) of a row-major matrix are
// one contiguous run, so the shard is a single copy.
func (s DenseSource) Fill(lo, hi int, dst *mat.Dense) {
	d := s.X.Cols()
	if lo < 0 || hi > s.X.Rows() || hi-lo > dst.Rows() || dst.Cols() != d {
		panic(fmt.Sprintf("engine: DenseSource.Fill rows [%d, %d) of %dx%d into %dx%d",
			lo, hi, s.X.Rows(), d, dst.Rows(), dst.Cols()))
	}
	copy(dst.RawData()[:(hi-lo)*d], s.X.RawData()[lo*d:hi*d])
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
func (s GridSource) Fill(lo, hi int, dst *mat.Dense) {
	d := len(s.Axes)
	for i := lo; i < hi; i++ {
		row := dst.Row(i - lo)
		rem := i
		for j := d - 1; j >= 0; j-- {
			ax := s.Axes[j]
			row[j] = ax[rem%len(ax)]
			rem /= len(ax)
		}
	}
}

// RankFunc scores one candidate for shortlist ordering from the cost
// surrogate's posterior μ and σ; higher is better. It must be the same
// criterion the policy maximizes, so the policy's argmax over the
// shortlist equals its argmax over the full pool.
type RankFunc func(mu, sigma float64) float64

// rankerSpec pairs a shortlist criterion with its pruning class: monotone
// ranks can only decrease as observations are appended (they depend on σ
// alone), so stale per-candidate ranks are true upper bounds and
// approximate pruning stays exact.
type rankerSpec struct {
	fn       RankFunc
	monotone bool
}

// rankers maps shortlist-safe policy names to their selection criterion.
// Only pure argmax policies qualify: sampling policies (randuniform,
// randgoodness, rgma) draw from the whole pool and cannot run on a
// shortlist.
var rankers = map[string]rankerSpec{
	"maxsigma": {fn: func(mu, sigma float64) float64 { return sigma }, monotone: true},
	"minpred":  {fn: func(mu, sigma float64) float64 { return sigma - mu }},
}

func rankerFor(name string) (RankFunc, bool) {
	r, ok := rankers[normName(name)]
	return r.fn, ok
}

// rankerIsMonotone reports whether the named criterion is σ-monotone (see
// rankerSpec); unknown names report false.
func rankerIsMonotone(name string) bool { return rankers[normName(name)].monotone }

// RankerNames lists the shortlist-safe policy names, sorted.
func RankerNames() []string { return sortedKeys(rankers) }

// StreamConfig tunes StreamState; the zero value gets defaults.
type StreamConfig struct {
	ShardSize int  // candidates per slab (default 4096)
	TopK      int  // shortlist size (default 64)
	Approx    bool // enable per-candidate upper-bound pruning
	// RefreshEvery forces a full un-pruned rescore every k-th call
	// (default 16). Only non-monotone ranks consult it: pruning is exact
	// for σ-monotone ones, so a refresh could not change their shortlist.
	RefreshEvery int
	Rank         RankFunc
	// NonMonotoneRank declares that Rank is not σ-monotone (its value can
	// rise for a fixed candidate as observations accumulate, e.g. minpred's
	// mean term). Approximate pruning then thresholds against the previous
	// Select's final k-th rank — a deterministic, boundedly-stale test —
	// instead of the in-call shared lower bound, which is exact only for
	// monotone ranks. Leave false for σ-only criteria like maxsigma.
	NonMonotoneRank bool
}

func (c *StreamConfig) setDefaults() {
	if c.ShardSize <= 0 {
		c.ShardSize = 4096
	}
	if c.TopK <= 0 {
		c.TopK = 64
	}
	if c.RefreshEvery <= 0 {
		c.RefreshEvery = 16
	}
}

// streamEntry is one candidate's source id, rank, and cost posterior.
type streamEntry struct {
	id        int
	rank      float64
	mu, sigma float64
}

// better orders entries like a first-max full scan: higher rank wins, ties
// go to the smaller source id.
func (e streamEntry) better(o streamEntry) bool {
	if e.rank != o.rank {
		return e.rank > o.rank
	}
	return e.id < o.id
}

// fillReq asks a worker lane's filler goroutine to generate rows [lo, hi)
// into dst (one half of the lane's double-buffered slab).
type fillReq struct {
	lo, hi int
	dst    *mat.Dense
}

// streamWorker is one scoring lane's private state, reused across Select
// calls: a double-buffered feature slab (the second half allocated only
// when prefetch runs), cost μ/σ buffers, the source ids of the rows
// compacted into the slab, a bounded partial heap, and the lane's shard and
// candidate counters (aggregated into the obs totals after the merge).
type streamWorker struct {
	xbuf      [2]*mat.Dense
	mu, sigma []float64
	ids       []int
	heap      []streamEntry

	scored, pruned         int64 // shards
	candScored, candPruned int64 // live candidates

	req  chan fillReq
	done chan struct{}
}

// startFiller launches the lane's shard-generation goroutine. The protocol
// allows one outstanding request: every req send is matched by one done
// receive before the next send, so the capacity-1 channels never block the
// filler.
func (w *streamWorker) startFiller(src CandidateSource) {
	w.req = make(chan fillReq, 1)
	w.done = make(chan struct{}, 1)
	go func(req chan fillReq, done chan struct{}) {
		for r := range req {
			src.Fill(r.lo, r.hi, r.dst)
			done <- struct{}{}
		}
	}(w.req, w.done)
}

// stopFiller shuts the lane's filler down; all requests must be drained.
func (w *streamWorker) stopFiller() {
	close(w.req)
	w.req, w.done = nil, nil
}

// kthBound is the shared monotone lower bound on the final k-th shortlist
// rank, published across lanes with a CAS-max. Any lane whose local heap
// holds k entries knows the merged top-k ranks at least as high as its
// k-th best, so raising the bound to that rank is always sound; a stale
// (lower) read by another lane only prunes less.
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

// pruneLimit is one Select's prune threshold. It holds a fixed value (the
// previous k-th rank for non-monotone ranks, -Inf for an unpruned pass)
// unless shared is set, in which case lanes raise it in-call as their
// heaps fill (σ-monotone ranks).
type pruneLimit struct {
	kthBound
	shared bool
}

// tombstone is a removed candidate's bound. NaN fails every comparison, so
// the survivor test b >= lim drops tombstones without a separate lookup.
var tombstone = math.NaN()

func isTombstone(b float64) bool { return b != b }

// StreamState is a streamed candidate pool usable across AL iterations: it
// keeps one prune bound per candidate (tombstones included) and produces
// one exact (or boundedly approximate) top-k shortlist per Select call.
// Select and Remove must not overlap (one selection loop owns the state);
// Select parallelizes internally.
type StreamState struct {
	src       CandidateSource
	cost, mem gp.Model
	cfg       StreamConfig

	// bounds[id] is candidate id's last scored rank: +Inf until scored,
	// tombstone once removed. 8 bytes per candidate.
	bounds  []float64
	live    int
	gen     uint64 // cost posterior generation the bounds hold under
	calls   int
	lastKth float64 // previous Select's final k-th rank (non-monotone prune threshold)
	top     []int   // previous Select's top k+1 ids (σ-monotone seed bound)

	workers []*streamWorker
}

// NewStreamState builds a streamed pool over src ranked by the fitted cost
// surrogate, with mem predicted for the shortlist.
func NewStreamState(src CandidateSource, cost, mem gp.Model, cfg StreamConfig) *StreamState {
	cfg.setDefaults()
	if cfg.Rank == nil {
		cfg.Rank = rankers["maxsigma"].fn
	}
	n := src.Len()
	st := &StreamState{
		src:     src,
		cost:    cost,
		mem:     mem,
		cfg:     cfg,
		bounds:  make([]float64, n),
		live:    n,
		gen:     cost.Generation(),
		lastKth: math.Inf(-1),
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
	st.lastKth = math.Inf(-1)
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

// heapKth returns the k-th best rank held in a lane heap of capacity
// k+1, or false while it holds fewer than k entries. A full heap's root is
// its (k+1)-th best, so the k-th is the worse of the root's children.
func heapKth(h []streamEntry, k int) (float64, bool) {
	switch {
	case len(h) < k:
		return 0, false
	case len(h) == k:
		return h[0].rank, true
	}
	c := h[1]
	if len(h) > 2 && c.better(h[2]) {
		c = h[2]
	}
	return c.rank, true
}

// ensureWorkers sizes the lane pool to w, allocating each lane's slabs and
// buffers once and reusing them across Select calls. The second slab half
// exists only where prefetch runs (parallel lanes), keeping the serial
// path's footprint at one shard.
func (st *StreamState) ensureWorkers(w int, prefetch bool) {
	shard := st.cfg.ShardSize
	dim := st.src.Dim()
	for len(st.workers) < w {
		st.workers = append(st.workers, nil)
	}
	for i := 0; i < w; i++ {
		sw := st.workers[i]
		if sw == nil {
			sw = &streamWorker{
				mu:    make([]float64, shard),
				sigma: make([]float64, shard),
				ids:   make([]int, 0, shard),
			}
			sw.xbuf[0] = mat.NewDense(shard, dim, nil)
			st.workers[i] = sw
		}
		if prefetch && sw.xbuf[1] == nil {
			sw.xbuf[1] = mat.NewDense(shard, dim, nil)
		}
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

// scoreShard compacts the filled shard's surviving candidates — live, with
// a bound not strictly below the current threshold — to the front of the
// slab, predicts them through the cost surrogate, reduces them into the
// lane's bounded heap, and records their ranks as their new bounds. Writes
// touch lane-private state plus bounds[lo:hi], which only this lane (the
// shard's claimant) reads or writes during the call.
func (st *StreamState) scoreShard(w *streamWorker, lo, hi int, xs *mat.Dense, lim *pruneLimit) {
	th := lim.load()
	w.ids = w.ids[:0]
	for i, b := range st.bounds[lo:hi] {
		if isTombstone(b) {
			continue
		}
		if b < th {
			// Ranked below the threshold the last time it was scored; for
			// σ-monotone ranks its rank cannot have risen since.
			w.candPruned++
			continue
		}
		if n := len(w.ids); n != i {
			copy(xs.Row(n), xs.Row(i))
		}
		w.ids = append(w.ids, lo+i)
	}
	rows := len(w.ids)
	if rows == 0 {
		w.pruned++
		return
	}
	obs.PoolShardsInflight.Add(1)
	sp := obs.SpanShardScore.Start()
	if rows != xs.Rows() {
		xs = mat.NewDense(rows, xs.Cols(), xs.RawData()[:rows*xs.Cols()])
	}
	mu, sigma := w.mu[:rows], w.sigma[:rows]
	st.cost.PredictInto(xs, mu, sigma)
	k := st.cfg.TopK
	for i, id := range w.ids {
		r := st.cfg.Rank(mu[i], sigma[i])
		st.bounds[id] = r
		if math.IsNaN(r) {
			st.bounds[id] = math.Inf(1) // a NaN rank must not read as a tombstone
		}
		w.heap = pushBounded(w.heap, streamEntry{id: id, rank: r, mu: mu[i], sigma: sigma[i]}, k+1)
	}
	w.scored++
	w.candScored += int64(rows)
	if lim.shared {
		if r, ok := heapKth(w.heap, k); ok {
			lim.raise(r)
		}
	}
	sp.End()
	obs.PoolShardsInflight.Add(-1)
}

// scoreLoop is one lane's Select body: claim shards off the shared cursor,
// skipping (ungenerated) every shard none of whose live candidates reaches
// the prune threshold, then generate and score the rest. In parallel mode
// the lane's filler generates the next claimed shard into the other slab
// half while this goroutine scores the current one.
func (st *StreamState) scoreLoop(w *streamWorker, next *atomic.Int64, lim *pruneLimit, parallel bool, nShards int) {
	dim := st.src.Dim()
	claim := func() int {
		for {
			s := int(next.Add(1)) - 1
			if s >= nShards {
				return -1
			}
			lo, hi := st.shardRange(s)
			if survives(st.bounds[lo:hi], lim.load()) {
				return s
			}
			w.pruned++
			w.candPruned += countLive(st.bounds[lo:hi])
		}
	}
	view := func(buf, s int) (*mat.Dense, int, int) {
		lo, hi := st.shardRange(s)
		xs := w.xbuf[buf]
		if hi-lo != st.cfg.ShardSize {
			xs = mat.NewDense(hi-lo, dim, xs.RawData()[:(hi-lo)*dim])
		}
		return xs, lo, hi
	}
	if !parallel {
		// Serial reference path: fill and score in place.
		for s := claim(); s >= 0; s = claim() {
			xs, lo, hi := view(0, s)
			st.src.Fill(lo, hi, xs)
			st.scoreShard(w, lo, hi, xs, lim)
		}
		return
	}
	w.startFiller(st.src)
	defer w.stopFiller()
	cur := claim()
	if cur < 0 {
		return
	}
	buf := 0
	xs, lo, hi := view(buf, cur)
	w.req <- fillReq{lo: lo, hi: hi, dst: xs}
	for cur >= 0 {
		<-w.done // the current shard's slab is ready
		curXS, curLo, curHi := xs, lo, hi
		if cur = claim(); cur >= 0 {
			buf = 1 - buf
			xs, lo, hi = view(buf, cur)
			w.req <- fillReq{lo: lo, hi: hi, dst: xs}
		}
		st.scoreShard(w, curLo, curHi, curXS, lim)
	}
}

// seedBound re-scores the previous Select's top k+1 candidates that are
// still live and returns the k-th best of their current ranks: k live
// candidates rank at least that high, so the final k-th rank does too,
// whatever the posterior did since. Holding k+1 lets one pick still leave
// k. -Inf (never prunes) when fewer than k survive.
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
	mu, sigma := st.cost.Predict(st.fillRows(ids))
	ranks := make([]float64, len(ids))
	for i := range ranks {
		ranks[i] = st.cfg.Rank(mu[i], sigma[i])
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ranks)))
	return ranks[k-1]
}

// Select ranks the pool shard by shard — fanned out over min(Workers,
// shards) lanes, see the package comment for the determinism argument —
// and returns the top-k shortlist as a Candidates block plus the
// shortlist's source ids, both ordered by (rank desc, id asc) so a
// first-max policy scan picks the same candidate a full-pool scan would.
// The Candidates' slices are freshly allocated (size k); the X matrix
// holds the shortlist rows only, nil when no candidate is live.
func (st *StreamState) Select() (*Candidates, []int) {
	n := st.src.Len()
	shard := st.cfg.ShardSize
	k := st.cfg.TopK
	nShards := (n + shard - 1) / shard
	st.calls++
	reset := false
	if g := st.cost.Generation(); g != st.gen {
		st.invalidateBounds()
		st.gen = g
		reset = true
	}

	var lim pruneLimit
	lim.store(math.Inf(-1)) // -Inf never prunes (strict <)
	switch {
	case !st.cfg.Approx:
	case !st.cfg.NonMonotoneRank:
		lim.shared = true
		if !reset { // reset bounds are all +Inf: a seed could prune nothing
			lim.store(st.seedBound())
		}
	case st.cfg.RefreshEvery > 1 && st.calls%st.cfg.RefreshEvery != 1:
		lim.store(st.lastKth)
	}

	w := mat.Workers()
	if w > nShards {
		w = nShards
	}
	if w < 1 {
		w = 1
	}
	st.ensureWorkers(w, w > 1)
	for _, sw := range st.workers[:w] {
		sw.heap = sw.heap[:0]
		sw.scored, sw.pruned = 0, 0
		sw.candScored, sw.candPruned = 0, 0
	}
	var next atomic.Int64
	if w == 1 {
		st.scoreLoop(st.workers[0], &next, &lim, false, nShards)
	} else {
		mat.ParallelWorkers(w, func(lane int) {
			st.scoreLoop(st.workers[lane], &next, &lim, true, nShards)
		})
	}

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
	if len(out) == k {
		st.lastKth = out[k-1].rank
	} else {
		st.lastKth = math.Inf(-1)
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
	dim := st.src.Dim()
	xs := mat.NewDense(len(ids), dim, nil)
	one := mat.NewDense(1, dim, nil)
	for i, id := range ids {
		st.src.Fill(id, id+1, one)
		copy(xs.Row(i), one.Row(0))
	}
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

func newStreamScorer(cost, mem gp.Model, x *mat.Dense, spec *PoolSpec, rank RankFunc, monotone bool) *streamScorer {
	cfg := StreamConfig{Rank: rank, NonMonotoneRank: !monotone}
	if spec != nil {
		cfg.ShardSize = spec.Shard
		cfg.TopK = spec.TopK
		cfg.Approx = spec.Approx
		cfg.RefreshEvery = spec.RefreshEvery
	}
	return &streamScorer{st: NewStreamState(DenseSource{X: x}, cost, mem, cfg)}
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
// supports shortlist-safe rankers only, none of which consume gains.
func (s *streamScorer) FidelityGains() []float64 { return nil }

func (s *streamScorer) Close() {}
