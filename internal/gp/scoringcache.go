package gp

import (
	"fmt"
	"math"
	"sync"

	"alamr/internal/kernel"
	"alamr/internal/mat"
	"alamr/internal/obs"
)

// ScoringCache is a persistent posterior cache over a candidate pool: for
// every live candidate i it stores the cross-kernel row kᵢ = k(xᵢ, X), the
// solve vector vᵢ = L⁻¹kᵢ, the running norm ‖vᵢ‖², and the prior variance
// k(xᵢ, xᵢ). With that state the posterior over the whole pool is
//
//	μᵢ = α·kᵢ + ȳ           (one O(n) dot per candidate)
//	σᵢ² = k(xᵢ,xᵢ) − ‖vᵢ‖²   (O(1) per candidate)
//
// so re-scoring m candidates costs O(m·n) per AL iteration instead of the
// O(m·n²) of calling Predict over the pool (a fresh triangular solve per
// candidate). The cache tracks its GP across the loop's three mutations:
//
//   - Append: every kᵢ gains the entry against the new training row and
//     every vᵢ gains one border-solve step (mat.Cholesky.BorderSolveStep's
//     bits) against the new factor row — O(n) per candidate, in parallel
//     over candidates.
//   - Refit / Fit (new hyperparameters): every stored row is wrong; the
//     cache marks itself stale and the next Scores call rebuilds all
//     candidates in one parallel batched pass.
//   - Candidate removal: O(1) swap-delete of the heavy per-candidate state.
//
// Layout: kᵢ and vᵢ live in two pointer-free slabs stored entry-major:
// entry j of slot s sits at [j·stride + s], so column j (entry j of every
// slot) is contiguous and stride, the pool size rounded up to a multiple of
// eight, never changes. An append writes one new column per slab; the
// slabs hold room for n + n/2 + 8 entries when first built, and an append
// that outgrows them doubles the room with one contiguous copy of the
// columns held; a rebuild reuses them when they fit. For the isotropic RBF
// kernel the cache also keeps the pool's features column-major with their
// squared norms, so that an append fills the new kernel column for every
// candidate in one vector sweep (columnEvaluator), written straight into
// the slab, and a rebuild fills all n columns that way. Other kernels
// evaluate each candidate's entries through the GP's row evaluator. Every
// pass runs eight slots per call of the strided lane kernels
// (mat.DotStrided, mat.Cholesky.ForwardSolveStrided).
//
// Determinism: the rebuild pass solves each vᵢ with the flat substitution
// (ForwardSolveStrided from row 0, which has ForwardSolveFlatTo's bits)
// whose per-row grouping is bitwise identical to BorderSolveStep (the same
// call from the newest row), and ‖vᵢ‖² is accumulated in index order in
// both paths; μ has DotBlocked's bits and the column sweep has the row
// evaluator's. A cache freshly built at size n therefore holds bit-for-bit
// the state of a cache built at size n₀ < n and extended through n−n₀
// appends — the property checkpoint resume relies on (the online runtime
// rebuilds caches after replaying the feed log and must continue the
// trajectory bitwise).
//
// Scores is deliberately not bitwise-equal to Predict: Predict's blocked
// forward solve and its different mean reduction differ from the cache in
// the last ulps. Equivalence tests pin the agreement to ≤1e-12 and the
// policy selections to exact equality on fixed seeds.
//
// A ScoringCache is not safe for concurrent use, matching the sequential
// structure of the AL loop; distinct (GP, cache) pairs are independent.
type ScoringCache struct {
	g *GP

	// Candidate features, slot-major: slot s holds the candidate at
	// position pos[s] of the caller's pool. Slot s's row is
	// xs[s·d : (s+1)·d]; cols[i][s] is its feature i and norms[s] its
	// squared norm (kernel.SqNorm), the pool layout the RBF column sweep
	// reads. Swap-delete moves one slot in every array; the slot→position
	// index keeps Scores in pool order.
	d     int
	xs    []float64
	cols  [][]float64
	norms []float64

	// Per-candidate state, entry-major: entry j of slot s's kᵢ is
	// ks[j·stride + s] and of its vᵢ vs[j·stride + s], for j < n; the slabs
	// have room for room entries per slot.
	stride, n, room int
	ks, vs          []float64
	v2              []float64 // running ‖vᵢ‖², extended in index order
	kss             []float64 // prior variance k(xᵢ, xᵢ)

	colEval columnEvaluator // the GP's row evaluator's column form, if any

	pos   []int // slot → pool position
	stale bool  // hyperparameters changed since the last (re)build

	mu, sigma []float64 // pool-order output buffers, reused across calls

	// The parallel passes' bodies, bound once so that a pass allocates
	// nothing of its own.
	scoreFn, extendFn, rebuildFn func(lo, hi int)
}

// columnEvaluator is a kernel row evaluator's pool-column form (the
// isotropic RBF's): EvalColumn sets out[t] = k(x_s, z_j) for s = off+t,
// candidate s having the features rows[s·d : (s+1)·d], the column-major
// copy cols[i][s] and the squared norm norms[s] = kernel.SqNorm(x_s), with
// the bits the per-candidate Eval gives; Diag is k(x, x) for every row x
// whose features are all finite.
type columnEvaluator interface {
	EvalColumn(out []float64, j int, rows []float64, cols [][]float64, norms []float64, off int)
	Diag() float64
}

// NewScoringCache attaches a posterior cache for the candidate rows of x to
// the fitted GP g. Candidate features are copied; the caller may reuse x.
// The cache registers itself with g — every later Append extends it and
// every Fit/Refit invalidates it — until Close detaches it.
func NewScoringCache(g *GP, x *mat.Dense) *ScoringCache {
	if !g.fitted {
		panic("gp: NewScoringCache before Fit")
	}
	m, d := x.Rows(), x.Cols()
	c := &ScoringCache{
		g:      g,
		d:      d,
		xs:     append([]float64(nil), x.RawData()[:m*d]...),
		cols:   make([][]float64, d),
		norms:  make([]float64, m),
		stride: (m + 7) &^ 7,
		v2:     make([]float64, m),
		kss:    make([]float64, m),
		pos:    make([]int, m),
		stale:  true,
	}
	for i := range c.cols {
		c.cols[i] = make([]float64, m)
	}
	for s := 0; s < m; s++ {
		row := c.row(s)
		for i, v := range row {
			c.cols[i][s] = v
		}
		c.norms[s] = kernel.SqNorm(row)
		c.pos[s] = s
	}
	c.scoreFn, c.extendFn, c.rebuildFn = c.scoreBlocks, c.extendBlocks, c.rebuildBlocks
	g.caches = append(g.caches, c)
	return c
}

// Len reports the number of live candidates.
func (c *ScoringCache) Len() int { return len(c.pos) }

// Close detaches the cache from its GP; after Close the GP's appends and
// refits no longer spend time maintaining it.
func (c *ScoringCache) Close() {
	for i, o := range c.g.caches {
		if o == c {
			c.g.caches = append(c.g.caches[:i], c.g.caches[i+1:]...)
			break
		}
	}
}

// invalidate marks every stored row stale; called by precompute, i.e.
// whenever hyperparameters (and hence the factor and all kernel rows) may
// have changed.
func (c *ScoringCache) invalidate() {
	c.stale = true
	obs.CacheInvalidations.Inc()
}

// row returns slot s's features.
func (c *ScoringCache) row(s int) []float64 { return c.xs[s*c.d : (s+1)*c.d] }

// Scores returns the posterior mean and standard deviation for every live
// candidate in pool order. The returned slices are owned by the cache and
// are overwritten by the next call. A stale cache (after Fit/Refit) is
// rebuilt first in one parallel batched pass.
func (c *ScoringCache) Scores() (mu, sigma []float64) {
	if c.stale {
		c.rebuild()
	} else {
		obs.CacheHits.Inc()
	}
	m := len(c.pos)
	if cap(c.mu) < m {
		c.mu = make([]float64, m)
		c.sigma = make([]float64, m)
	}
	c.mu, c.sigma = c.mu[:m], c.sigma[:m]
	mat.ParallelFor((m+7)/8, mat.ChunkFor(8*(2*c.n+8)), c.scoreFn)
	return c.mu, c.sigma
}

// blocks maps a pass's blocks of eight slots [lo, hi) to slots.
func (c *ScoringCache) blocks(lo, hi int) (int, int) {
	return 8 * lo, min(8*hi, len(c.pos))
}

// scoreBlocks is Scores' body for the blocks of eight slots [lo, hi): μ
// (α·kₛ with DotBlocked's bits, plus ȳ) and σ of each slot, written at its
// pool position.
func (c *ScoringCache) scoreBlocks(lo, hi int) {
	lo, hi = c.blocks(lo, hi)
	yMean := c.g.yMean
	var dots [64]float64
	for s0 := lo; s0 < hi; s0 += len(dots) {
		d := dots[:min(len(dots), hi-s0)]
		mat.DotStrided(d, c.g.alpha, c.ks[s0:], c.stride)
		for t, dot := range d {
			s := s0 + t
			p := c.pos[s]
			c.mu[p] = dot + yMean
			variance := c.kss[s] - c.v2[s]
			if variance < 0 {
				variance = 0
			}
			c.sigma[p] = math.Sqrt(variance)
		}
	}
}

// Remove deletes the candidate at pool position p (the index the caller's
// pool — and hence Scores — uses). The last slot moves into the freed one
// in every array, O(n + d) entries; only the machine-word position index
// is walked in full, the same cost class as the caller's own pool
// bookkeeping.
func (c *ScoringCache) Remove(p int) {
	if p < 0 || p >= len(c.pos) {
		panic(fmt.Sprintf("gp: ScoringCache.Remove position %d out of range %d", p, len(c.pos)))
	}
	s, last := 0, len(c.pos)-1
	for t, q := range c.pos {
		if q == p {
			s = t
		} else if q > p {
			c.pos[t] = q - 1
		}
	}
	if s != last {
		copy(c.row(s), c.row(last))
		for _, col := range c.cols {
			col[s] = col[last]
		}
		for j := 0; j < c.n; j++ {
			e := j * c.stride
			c.ks[e+s], c.vs[e+s] = c.ks[e+last], c.vs[e+last]
		}
		c.norms[s], c.v2[s], c.kss[s], c.pos[s] = c.norms[last], c.v2[last], c.kss[last], c.pos[last]
	}
	c.xs = c.xs[:last*c.d]
	for i, col := range c.cols {
		c.cols[i] = col[:last]
	}
	c.norms, c.v2, c.kss, c.pos = c.norms[:last], c.v2[:last], c.kss[:last], c.pos[:last]
}

// reserve makes room for n entries per slot, keeping the first keep
// columns. The room doubles when n outgrows it (n + n/2 + 8 the first
// time, or when doubling falls short), so a run of appends copies the slabs
// a logarithmic number of times, each one contiguous copy.
func (c *ScoringCache) reserve(n, keep int) {
	if n <= c.room {
		return
	}
	room := 2 * c.room
	if room < n {
		room = n + n/2 + 8
	}
	ks, vs := make([]float64, room*c.stride), make([]float64, room*c.stride)
	copy(ks, c.ks[:keep*c.stride])
	copy(vs, c.vs[:keep*c.stride])
	c.ks, c.vs, c.room = ks, vs, room
}

// rebuildScratch recycles the per-candidate kernel rows of kernels without
// a column form.
var rebuildScratch = sync.Pool{New: func() any { return new([]float64) }}

// rebuild recomputes every candidate's cached state against the GP's
// current hyperparameters and factor, in parallel over blocks of eight
// candidates. The flat forward solves keep rebuilt state bitwise identical
// to incrementally extended state (see the type comment).
func (c *ScoringCache) rebuild() {
	obs.CacheRebuilds.Inc()
	n := c.g.x.Rows()
	c.reserve(n, 0)
	c.n = n
	c.colEval, _ = c.g.rowEval.(columnEvaluator)
	mat.ParallelFor((len(c.pos)+7)/8, mat.ChunkFor(8*(n*n/2+32*n+8)), c.rebuildFn)
	c.stale = false
}

// rebuildBlocks is rebuild's body for the blocks of eight slots [lo, hi):
// it fills their n kernel columns, solves them into the v slab in one
// strided flat solve, and sets their prior variances.
func (c *ScoringCache) rebuildBlocks(lo, hi int) {
	g, n, stride := c.g, c.n, c.stride
	lo, hi = c.blocks(lo, hi)
	if c.colEval != nil {
		for j := 0; j < n; j++ {
			c.colEval.EvalColumn(c.ks[j*stride+lo:j*stride+hi], j, c.xs, c.cols, c.norms, lo)
		}
	} else {
		buf := rebuildScratch.Get().(*[]float64)
		if cap(*buf) < n {
			*buf = make([]float64, n)
		}
		k := (*buf)[:n]
		for s := lo; s < hi; s++ {
			g.rowEval.Eval(c.row(s), 0, k)
			for j, v := range k {
				c.ks[j*stride+s] = v
			}
		}
		rebuildScratch.Put(buf)
	}

	v2 := c.v2[lo:hi]
	clear(v2)
	g.chol.ForwardSolveStrided(c.vs[lo:], c.ks[lo:], stride, 0, v2)

	for s := lo; s < hi; s++ {
		// A finite squared norm means every feature is finite.
		if c.colEval != nil && !math.IsInf(c.norms[s], 0) && !math.IsNaN(c.norms[s]) {
			c.kss[s] = c.colEval.Diag()
		} else {
			c.kss[s] = g.kern.Eval(c.row(s), c.row(s))
		}
	}
}

// extendAppend absorbs one Append into every candidate: kᵢ gains the entry
// against the just-appended training row (the column sweep or the GP's own
// extended row evaluator, both with the rebuild path's bits) and vᵢ gains
// one border-solve step — O(n) per candidate. A stale cache skips the work;
// the pending rebuild covers the new row.
func (c *ScoringCache) extendAppend() {
	if c.stale || len(c.pos) == 0 {
		return
	}
	obs.CacheExtends.Inc()
	n := c.g.x.Rows() // post-append size; cached rows have n−1 entries
	c.reserve(n, n-1)
	c.n = n
	c.colEval, _ = c.g.rowEval.(columnEvaluator)
	mat.ParallelFor((len(c.pos)+7)/8, mat.ChunkFor(8*(2*n+64)), c.extendFn)
}

// extendBlocks is extendAppend's body for the blocks of eight slots
// [lo, hi): it fills their entries of the new column j and takes the border
// step from row j.
func (c *ScoringCache) extendBlocks(lo, hi int) {
	g, j := c.g, c.n-1
	lo, hi = c.blocks(lo, hi)
	col := c.ks[j*c.stride+lo : j*c.stride+hi]
	if c.colEval != nil {
		c.colEval.EvalColumn(col, j, c.xs, c.cols, c.norms, lo)
	} else {
		for t := range col {
			g.rowEval.Eval(c.row(lo+t), j, col[t:t+1])
		}
	}
	g.chol.ForwardSolveStrided(c.vs[lo:], c.ks[lo:], c.stride, j, c.v2[lo:hi])
}
