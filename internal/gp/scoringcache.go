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
//     every vᵢ gains one entry via mat.Cholesky.BorderSolveStep against the
//     new factor row — O(n) per candidate, in parallel over candidates.
//   - Refit / Fit (new hyperparameters): every stored row is wrong; the
//     cache marks itself stale and the next Scores call rebuilds all
//     candidates in one parallel batched pass.
//   - Candidate removal: O(1) swap-delete of the heavy per-candidate state.
//
// Layout: kᵢ and vᵢ live in two pointer-free slabs, slot s at
// [s·stride, s·stride+n). The first stride is n + n/2 + 8; an append that
// outgrows it doubles it with one copy, and a rebuild reuses the slabs when
// they fit. For the isotropic RBF kernel the cache also keeps the pool's
// features column-major with their squared norms, so that an append fills
// the new kernel column for every candidate in one vector sweep
// (columnEvaluator) and a rebuild fills all n columns that way. Other
// kernels evaluate each candidate's entries through the GP's row evaluator.
//
// Determinism: the rebuild pass solves each vᵢ with the flat substitution
// (ForwardSolveFlatTo, or ForwardSolveFlatLanes for blocks of eight, which
// has its bits) whose per-row grouping is bitwise identical to
// BorderSolveStep, and ‖vᵢ‖² is accumulated in index order in both paths;
// the column sweep has the row evaluator's bits. A cache freshly built at
// size n therefore holds bit-for-bit the state of a cache built at size
// n₀ < n and extended through n−n₀ appends — the property checkpoint resume
// relies on (the online runtime rebuilds caches after replaying the feed log
// and must continue the trajectory bitwise).
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

	// Candidate features, slot-major: position p of the caller's pool maps
	// to slot order[p]. Slot s's row is xs[s·d : (s+1)·d]; cols[i][s] is its
	// feature i and norms[s] its squared norm (kernel.SqNorm), the pool
	// layout the RBF column sweep reads. Swap-delete moves one slot in
	// every array; the position→slot indirection keeps Scores in pool
	// order.
	d     int
	xs    []float64
	cols  [][]float64
	norms []float64

	// Per-candidate state: slot s holds kᵢ = k(xᵢ, X) at
	// ks[s·stride : s·stride+n] and vᵢ = L⁻¹kᵢ at the same offsets of vs.
	stride, n int
	ks, vs    []float64
	v2        []float64 // running ‖vᵢ‖², extended in index order
	kss       []float64 // prior variance k(xᵢ, xᵢ)

	col     []float64       // one kernel column, indexed by slot
	colEval columnEvaluator // the GP's row evaluator's column form, if any

	order []int // pool position → slot
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
		g:     g,
		d:     d,
		xs:    append([]float64(nil), x.RawData()[:m*d]...),
		cols:  make([][]float64, d),
		norms: make([]float64, m),
		v2:    make([]float64, m),
		kss:   make([]float64, m),
		col:   make([]float64, m),
		order: make([]int, m),
		stale: true,
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
		c.order[s] = s
	}
	c.scoreFn, c.extendFn, c.rebuildFn = c.scorePositions, c.extendSlots, c.rebuildBlocks
	g.caches = append(g.caches, c)
	return c
}

// Len reports the number of live candidates.
func (c *ScoringCache) Len() int { return len(c.order) }

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
	m := len(c.order)
	if cap(c.mu) < m {
		c.mu = make([]float64, m)
		c.sigma = make([]float64, m)
	}
	c.mu, c.sigma = c.mu[:m], c.sigma[:m]
	mat.ParallelFor(m, mat.ChunkFor(2*c.n+8), c.scoreFn)
	return c.mu, c.sigma
}

// scorePositions is Scores' body for pool positions [lo, hi).
func (c *ScoringCache) scorePositions(lo, hi int) {
	alpha, yMean := c.g.alpha, c.g.yMean
	n := len(alpha)
	for p := lo; p < hi; p++ {
		s := c.order[p]
		c.mu[p] = mat.DotBlocked(c.ks[s*c.stride:][:n], alpha) + yMean
		variance := c.kss[s] - c.v2[s]
		if variance < 0 {
			variance = 0
		}
		c.sigma[p] = math.Sqrt(variance)
	}
}

// Remove deletes the candidate at pool position p (the index the caller's
// pool — and hence Scores — uses). The last slot moves into the freed one
// in every array, O(n + d); only the machine-word position index shifts,
// the same cost class as the caller's own pool bookkeeping.
func (c *ScoringCache) Remove(p int) {
	if p < 0 || p >= len(c.order) {
		panic(fmt.Sprintf("gp: ScoringCache.Remove position %d out of range %d", p, len(c.order)))
	}
	s := c.order[p]
	c.order = append(c.order[:p], c.order[p+1:]...)
	last := len(c.order)
	if s != last {
		copy(c.row(s), c.row(last))
		for _, col := range c.cols {
			col[s] = col[last]
		}
		copy(c.ks[s*c.stride:][:c.n], c.ks[last*c.stride:][:c.n])
		copy(c.vs[s*c.stride:][:c.n], c.vs[last*c.stride:][:c.n])
		c.norms[s], c.v2[s], c.kss[s] = c.norms[last], c.v2[last], c.kss[last]
		for q, t := range c.order {
			if t == last {
				c.order[q] = s
				break
			}
		}
	}
	c.xs = c.xs[:last*c.d]
	for i, col := range c.cols {
		c.cols[i] = col[:last]
	}
	c.norms, c.v2, c.kss, c.col = c.norms[:last], c.v2[:last], c.kss[:last], c.col[:last]
}

// reserve makes room for n entries per slot, keeping each slot's first keep
// entries. The stride doubles when n outgrows it (n + n/2 + 8 the first
// time, or when doubling falls short), so a run of appends copies the slabs
// a logarithmic number of times.
func (c *ScoringCache) reserve(n, keep int) {
	if n <= c.stride {
		return
	}
	stride := 2 * c.stride
	if stride < n {
		stride = n + n/2 + 8
	}
	m := len(c.order)
	ks, vs := make([]float64, m*stride), make([]float64, m*stride)
	for s := 0; s < m; s++ {
		copy(ks[s*stride:][:keep], c.ks[s*c.stride:][:keep])
		copy(vs[s*stride:][:keep], c.vs[s*c.stride:][:keep])
	}
	c.ks, c.vs, c.stride = ks, vs, stride
}

// rebuildScratch recycles the rebuild's interleaved lane-solve buffers.
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
	mat.ParallelFor((len(c.order)+7)/8, mat.ChunkFor(8*(n*n/2+32*n+8)), c.rebuildFn)
	c.stale = false
}

// rebuildBlocks is rebuild's body for the blocks of eight slots [lo, hi).
func (c *ScoringCache) rebuildBlocks(lo, hi int) {
	g, n, stride := c.g, c.n, c.stride
	lo, hi = 8*lo, min(8*hi, len(c.order))
	if c.colEval != nil {
		col := c.col[lo:hi]
		for j := 0; j < n; j++ {
			c.colEval.EvalColumn(col, j, c.xs, c.cols, c.norms, lo)
			for t, k := range col {
				c.ks[(lo+t)*stride+j] = k
			}
		}
	} else {
		for s := lo; s < hi; s++ {
			g.rowEval.Eval(c.row(s), 0, c.ks[s*stride:][:n])
		}
	}

	s := lo
	if mat.HaveLanes() && hi-lo >= 8 {
		buf := rebuildScratch.Get().(*[]float64)
		if cap(*buf) < 8*n {
			*buf = make([]float64, 8*n)
		}
		w := (*buf)[:8*n]
		for ; s+8 <= hi; s += 8 {
			for l := 0; l < 8; l++ {
				for j, k := range c.ks[(s+l)*stride:][:n] {
					w[8*j+l] = k
				}
			}
			ss := g.chol.ForwardSolveFlatLanes(w)
			for l := 0; l < 8; l++ {
				v := c.vs[(s+l)*stride:][:n]
				for j := range v {
					v[j] = w[8*j+l]
				}
				c.v2[s+l] = ss[l]
			}
		}
		rebuildScratch.Put(buf)
	}
	for ; s < hi; s++ {
		c.v2[s] = g.chol.ForwardSolveFlatTo(c.vs[s*stride:][:n], c.ks[s*stride:][:n])
	}

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
	if c.stale || len(c.order) == 0 {
		return
	}
	obs.CacheExtends.Inc()
	n := c.g.x.Rows() // post-append size; cached rows have n−1 entries
	c.reserve(n, n-1)
	c.n = n
	c.colEval, _ = c.g.rowEval.(columnEvaluator)
	mat.ParallelFor(len(c.order), mat.ChunkFor(2*n+64), c.extendFn)
}

// extendSlots is extendAppend's body for slots [lo, hi).
func (c *ScoringCache) extendSlots(lo, hi int) {
	g, j := c.g, c.n-1
	col := c.col[lo:hi]
	if c.colEval != nil {
		c.colEval.EvalColumn(col, j, c.xs, c.cols, c.norms, lo)
	} else {
		for t := range col {
			g.rowEval.Eval(c.row(lo+t), j, col[t:t+1])
		}
	}
	for t, kNew := range col {
		s := lo + t
		v := c.vs[s*c.stride:][:j+1]
		vNew := g.chol.BorderSolveStep(v[:j], kNew)
		c.ks[s*c.stride+j], v[j] = kNew, vNew
		c.v2[s] += vNew * vNew
	}
}
