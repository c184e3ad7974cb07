package engine

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"alamr/internal/gp"
	"alamr/internal/mat"
	"alamr/internal/obs"
)

// The streamed candidate pool replaces materialize-everything scoring for
// pools too large to hold per-candidate state. It serves maxsigma, the
// paper's MaxSigma step, which is one argmax of the cost surrogate's
// posterior σ: candidates are generated and scored shard by shard through
// the cost surrogate alone, every lane keeps its best two, and the lanes'
// pairs fold into the pool's winner, for whose row alone the memory
// surrogate is then predicted. Peak pool memory is O(workers·shard) —
// per-worker feature slabs and μ/σ score vectors — and 8 bytes per
// candidate for its prune bound, instead of the O(m·n) a ScoringCache pins
// or the O(m) feature and score arrays a materialized pass allocates.
// runReplay streams a sequential maxsigma campaign whose active pool is
// larger than one shard (streamShard); every other campaign scores through
// PoolScorer.
//
// Shard scoring is parallel: Select dispatches W = min(mat.Workers(),
// shards) worker lanes over the internal/mat pool, each lane claiming
// shards from a shared atomic cursor and scoring them serially (through
// gp.Model.PredictInto — the lanes *are* the parallelism) into its own
// feature slab, score buffers and best pair. A lane gathers a claimed
// shard's rows from the CandidateSource itself, in one pass, and predicts
// a DenseSource's rows in place when they are one run. The winner is
// independent of scheduling at every worker count: the best candidate under
// the strict total order (σ desc, id asc) is unique, each candidate's
// scores are computed in full by exactly one lane (memory: by the one
// post-merge Predict) with a floating-point evaluation order that depends on
// neither the lane nor the row's position in the batch, and the merge folds
// the lanes' pairs under that same order — so which lane scored which shard
// cannot change the result. mat.SetWorkers(1) degrades to the fully serial
// reference path.
//
// Every Select prunes. The pool keeps one bound per candidate — its σ the
// last time it was scored, +Inf until then — and inside every claimed shard
// generates and predicts only the live candidates whose bound is not
// strictly below the prune threshold; a shard with no such candidate is
// skipped whole. The survivors are gathered from the source in id order —
// borrowed in place when they are the whole window of a DenseSource (every
// full pass), copied into the front of the lane's slab otherwise — and
// per-row prediction arithmetic does not depend on row position or
// address, so their scores are bitwise what a full-shard pass gives. A
// candidate's posterior σ never rises while observations are
// appended under fixed hyperparameters, so a stale bound is a true upper
// bound, and the threshold is a shared monotone lower bound on the final
// best σ: seeded before the lanes start by re-scoring the previous Select's
// best two that are still live (two so that one pick still leaves one),
// then raised to its best σ by every lane that has scored a candidate, via
// an atomic CAS-max. A stale read of the bound is always a smaller value,
// so racing lanes can only prune less, never more — pruning stays exact
// under any interleaving, even though *which* candidates get pruned may
// vary with the schedule. Bounds reset whenever the cost model's posterior
// generation moves (gp.Model.Generation: a refit, a sparse re-projection, a
// treed re-split), the only events that can raise σ. DESIGN.md §Surrogate
// scaling states the bound precisely.

// CandidateSource yields candidate feature rows on demand, so a pool can
// exist without ever materializing m×d storage. Rows must be safe for
// concurrent use with distinct buffers: the parallel Select's lanes call it
// directly (both built-in sources are read-only during Rows).
type CandidateSource interface {
	// Len is the total number of candidates.
	Len() int
	// Dim is the feature dimensionality.
	Dim() int
	// Rows returns rows [lo, hi), row-major, as (hi-lo)·Dim() values: the
	// source's own storage, which the caller must not write, or the first
	// (hi-lo)·Dim() values of buf, written by the call.
	Rows(lo, hi int, buf []float64) []float64
}

// DenseSource adapts an already-materialized feature matrix (e.g. the
// replay dataset, which is resident regardless) to CandidateSource.
type DenseSource struct{ X *mat.Dense }

// Len implements CandidateSource.
func (s DenseSource) Len() int { return s.X.Rows() }

// Dim implements CandidateSource.
func (s DenseSource) Dim() int { return s.X.Cols() }

// Rows implements CandidateSource. Rows [lo, hi) of a row-major matrix are
// one contiguous run, so it lends them in place and never touches buf.
func (s DenseSource) Rows(lo, hi int, _ []float64) []float64 {
	d := s.X.Cols()
	if lo < 0 || hi > s.X.Rows() || lo > hi {
		panic(fmt.Sprintf("engine: DenseSource.Rows [%d, %d) of %dx%d", lo, hi, s.X.Rows(), d))
	}
	return s.X.RawData()[lo*d : hi*d : hi*d]
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

// Rows implements CandidateSource: it decodes the rows into buf. The last
// axis varies fastest.
func (s GridSource) Rows(lo, hi int, buf []float64) []float64 {
	d := len(s.Axes)
	dst := buf[:(hi-lo)*d]
	for i := lo; i < hi; i++ {
		row := dst[(i-lo)*d : (i-lo+1)*d]
		rem := i
		for j := d - 1; j >= 0; j-- {
			ax := s.Axes[j]
			row[j] = ax[rem%len(ax)]
			rem /= len(ax)
		}
	}
	return dst
}

// streamShard is the streamed pool's shard size — candidates per slab —
// and the active-pool size above which runReplay streams a maxsigma
// campaign.
const streamShard = 4096

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

// bestTwo holds the best two entries seen under better, best first; n
// counts the valid ones.
type bestTwo struct {
	e [2]streamEntry
	n int
}

func (p *bestTwo) push(e streamEntry) {
	switch {
	case p.n == 0:
		p.e[0], p.n = e, 1
	case e.better(p.e[0]):
		p.e[0], p.e[1], p.n = e, p.e[0], 2
	case p.n == 1 || e.better(p.e[1]):
		p.e[1], p.n = e, 2
	}
}

// streamWorker is one scoring lane's private state, reused across Select
// calls: a one-shard feature slab, cost μ/σ buffers, the source ids of the
// rows gathered into the slab, the lane's best two candidates, and the
// lane's shard and candidate counters (aggregated into the obs totals after
// the merge).
type streamWorker struct {
	xs        []float64
	mu, sigma []float64
	ids       []int
	best      bestTwo

	scored, pruned         int64 // shards
	candScored, candPruned int64 // live candidates
}

// bestBound is the shared monotone lower bound on the winner's σ,
// published across lanes with a CAS-max. Any lane that has scored a
// candidate knows the winner reaches at least that candidate's σ, so
// raising the bound to its best σ is always sound; a stale (lower) read by
// another lane only prunes less.
type bestBound struct{ bits atomic.Uint64 }

func (b *bestBound) store(v float64) { b.bits.Store(math.Float64bits(v)) }

func (b *bestBound) load() float64 { return math.Float64frombits(b.bits.Load()) }

// raise lifts the bound to v if v is higher; concurrent raises keep the
// maximum. Comparison is on float values, not bit patterns, and a NaN never
// raises it.
func (b *bestBound) raise(v float64) {
	for {
		old := b.bits.Load()
		if !(v > math.Float64frombits(old)) {
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
// the exact σ argmax of the live candidates per Select call.
// Select and Remove must not overlap (one selection loop owns the state);
// Select parallelizes internally.
type StreamState struct {
	src       CandidateSource
	cost, mem gp.Model
	shard     int // candidates per slab

	// bounds[id] is candidate id's last scored σ: +Inf until scored,
	// tombstone once removed. 8 bytes per candidate.
	bounds    []float64
	live      int
	shardLive []int  // live candidates per shard, kept by Remove
	gen       uint64 // cost posterior generation the bounds hold under
	top       []int  // previous Select's best two ids (seed bound)

	workers []*streamWorker
}

// newStreamState builds a streamed pool over src, in shards of shard
// candidates, ranked by the fitted cost surrogate's σ, with mem predicted
// for the winner.
func newStreamState(src CandidateSource, cost, mem gp.Model, shard int) *StreamState {
	n := src.Len()
	st := &StreamState{
		src:    src,
		cost:   cost,
		mem:    mem,
		shard:  shard,
		bounds: make([]float64, n),
		live:   n,
		gen:    cost.Generation(),
	}
	for i := range st.bounds {
		st.bounds[i] = math.Inf(1) // never prune an unscored candidate
	}
	st.shardLive = make([]int, (n+shard-1)/shard)
	for s := range st.shardLive {
		lo, hi := st.shardRange(s)
		st.shardLive[s] = hi - lo
	}
	return st
}

// Live reports the number of non-removed candidates.
func (st *StreamState) Live() int { return st.live }

// Remove tombstones candidate id (a source index). Removal only shrinks
// the set the winner is drawn from, so the other candidates' bounds stay
// valid; a shard whose last live candidate goes is skipped from then on.
func (st *StreamState) Remove(id int) {
	if !isTombstone(st.bounds[id]) {
		st.bounds[id] = tombstone
		st.live--
		st.shardLive[id/st.shard]--
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

// ensureWorkers sizes the lane pool to at least w, allocating each lane's
// slab and buffers once and reusing them across Select calls.
func (st *StreamState) ensureWorkers(w int) {
	for len(st.workers) < w {
		st.workers = append(st.workers, &streamWorker{
			xs:    make([]float64, st.shard*st.src.Dim()),
			mu:    make([]float64, st.shard),
			sigma: make([]float64, st.shard),
			ids:   make([]int, 0, st.shard),
		})
	}
}

// shardRange is shard s's source-id window [lo, hi).
func (st *StreamState) shardRange(s int) (lo, hi int) {
	lo = s * st.shard
	return lo, min(lo+st.shard, st.src.Len())
}

// survives reports whether any bound reaches lim: some live candidate of
// the window may still be the winner. Strict <: ties are never
// pruned, preserving first-max order.
func survives(bounds []float64, lim float64) bool {
	for _, b := range bounds {
		if b >= lim {
			return true
		}
	}
	return false
}

// gather returns the feature rows of ids, row-major and in the order
// given, with one Rows call per maximal run of consecutive ids. When the
// ids are one run — a full pass over a shard — the result is what Rows
// returned, for a DenseSource its own rows; otherwise each run is copied
// into buf.
func (st *StreamState) gather(ids []int, buf []float64) []float64 {
	dim := st.src.Dim()
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[j-1]+1 {
			j++
		}
		if i == 0 && j == len(ids) {
			return st.src.Rows(ids[0], ids[j-1]+1, buf)
		}
		dst := buf[i*dim : j*dim]
		copy(dst, st.src.Rows(ids[i], ids[j-1]+1, dst))
		i = j
	}
	return buf[:len(ids)*dim]
}

// scoreShard gathers the shard's surviving candidates — live, with a bound
// not strictly below the current threshold — into the lane's slab in id
// order, predicts them through the cost surrogate, folds them into the
// lane's best two, records their σ as their new bounds, and raises the
// shared threshold to the lane's best σ. Writes touch lane-private state
// plus bounds[lo:hi], which only this lane (the shard's claimant) reads or
// writes during the call.
func (st *StreamState) scoreShard(w *streamWorker, lo, hi int, lim *bestBound) {
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
	xs := mat.NewDense(rows, st.src.Dim(), st.gather(w.ids, w.xs))
	obs.PoolShardsInflight.Add(1)
	sp := obs.SpanShardScore.Start()
	mu, sigma := w.mu[:rows], w.sigma[:rows]
	st.cost.PredictInto(xs, mu, sigma)
	for i, id := range w.ids {
		st.bounds[id] = sigma[i]
		if math.IsNaN(sigma[i]) {
			st.bounds[id] = math.Inf(1) // a NaN σ must not read as a tombstone
		}
		w.best.push(streamEntry{id: id, mu: mu[i], sigma: sigma[i]})
	}
	w.scored++
	w.candScored += int64(rows)
	lim.raise(w.best.e[0].sigma)
	sp.End()
	obs.PoolShardsInflight.Add(-1)
}

// scoreLoop is one lane's Select body: claim shards off the shared cursor,
// skip (ungathered) every shard none of whose live candidates reaches the
// prune threshold — one with none left without reading its bounds, its
// live count added to the pruned candidates in O(1) — and score the rest.
func (st *StreamState) scoreLoop(w *streamWorker, next *atomic.Int64, lim *bestBound, nShards int) {
	for {
		s := int(next.Add(1)) - 1
		if s >= nShards {
			return
		}
		lo, hi := st.shardRange(s)
		if st.shardLive[s] == 0 || !survives(st.bounds[lo:hi], lim.load()) {
			w.pruned++
			w.candPruned += int64(st.shardLive[s])
			continue
		}
		st.scoreShard(w, lo, hi, lim)
	}
}

// seedBound re-scores the previous Select's best two candidates that are
// still live and returns the maximum of their current σ: a live candidate
// reaches it, so the winner does too, whatever the posterior did since.
// Holding two lets one pick still leave one. -Inf (never prunes) when none
// survives.
func (st *StreamState) seedBound() float64 {
	var ids []int
	for _, id := range st.top {
		if !isTombstone(st.bounds[id]) {
			ids = append(ids, id)
		}
	}
	seed := math.Inf(-1)
	if len(ids) == 0 {
		return seed
	}
	_, sigma := st.cost.Predict(st.fillRows(ids))
	for _, s := range sigma {
		if s > seed {
			seed = s
		}
	}
	return seed
}

// Select scores the pool by cost σ shard by shard — fanned out over
// min(Workers, shards) lanes, see the package comment for the determinism
// argument — and returns the winner, the live candidate a first-max
// maxsigma scan of the whole pool picks, as a one-row Candidates block
// (freshly allocated, memory predicted for that row alone) plus its source
// id. With no live candidate the block is empty, X is nil, and the id is -1.
func (st *StreamState) Select() (*Candidates, int) {
	n := st.src.Len()
	nShards := (n + st.shard - 1) / st.shard

	// -Inf never prunes (strict <). Reset bounds are all +Inf, so after a
	// generation move a seed could prune nothing.
	var lim bestBound
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
		sw.best = bestTwo{}
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

	// Merge: every lane holds the best two of its own survivors, and the
	// winner survives every prune, so folding the pairs under the strict
	// total order yields it independent of which lane held what. The
	// runner-up may depend on the schedule (pruning only guarantees the
	// winner), so it feeds the next seed bound, never the output.
	var best bestTwo
	for _, sw := range st.workers[:w] {
		for _, e := range sw.best.e[:sw.best.n] {
			best.push(e)
		}
	}
	st.top = st.top[:0]
	for _, e := range best.e[:best.n] {
		st.top = append(st.top, e.id)
	}

	c := &Candidates{MemLimitLog: math.Inf(1)}
	if best.n == 0 {
		return c, -1
	}
	e := best.e[0]
	c.X = st.fillRows([]int{e.id})
	c.MuCost, c.SigmaCost = []float64{e.mu}, []float64{e.sigma}
	c.MuMem, c.SigmaMem = st.mem.Predict(c.X)
	return c, e.id
}

// fillRows copies the feature rows of the given source ids, in order, into
// a matrix of its own: the winner's row outlives the Select that made it. (When
// gather wrote into that matrix, the copy moves its rows onto themselves.)
func (st *StreamState) fillRows(ids []int) *mat.Dense {
	xs := mat.NewDense(len(ids), st.src.Dim(), nil)
	copy(xs.RawData(), st.gather(ids, xs.RawData()))
	return xs
}

// streamScorer adapts a StreamState to the scorer surface: the policy sees
// the winner as its one-candidate set, and a candidate's stable id is its
// source id.
type streamScorer struct {
	st *StreamState

	id int        // the last Select's winner, as a source id
	x  *mat.Dense // its feature row
}

func newStreamScorer(cost, mem gp.Model, x *mat.Dense) *streamScorer {
	return &streamScorer{st: newStreamState(DenseSource{X: x}, cost, mem, streamShard)}
}

func (s *streamScorer) Candidates(memLimitLog float64) *Candidates {
	c, id := s.st.Select()
	c.MemLimitLog = memLimitLog
	s.id, s.x = id, c.X
	return c
}

// row returns the winner's features (valid until the next Candidates
// call, matching the loop's consume-before-Remove contract); p is 0.
func (s *streamScorer) row(p int) []float64 { return s.x.Row(p) }

// ID maps pick p, which indexes the one-candidate set, to the winner's
// source id.
func (s *streamScorer) ID(int) int { return s.id }

// Remove tombstones source id in the stream state.
func (s *streamScorer) Remove(id int) { s.st.Remove(id) }

// Len reports the live candidate count.
func (s *streamScorer) Len() int { return s.st.Live() }

// FidelityGains is unavailable on the streamed pool: it serves maxsigma
// only, which consumes no gains.
func (s *streamScorer) FidelityGains() []float64 { return nil }

func (s *streamScorer) Close() {}
