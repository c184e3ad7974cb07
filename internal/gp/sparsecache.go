package gp

import (
	"fmt"
	"math"

	"alamr/internal/mat"
	"alamr/internal/obs"
)

// SparseScoringCache is the ScoringCache analogue for the SoR surrogate:
// for every live candidate i it stores the inducing-kernel row
// kᵢ = k(xᵢ, Z), the A-solve vector wᵢ = A⁻¹kᵢ, and the SoR variance
// vᵢ = kᵢ·wᵢ, so re-scoring m candidates costs O(m·k) per AL iteration
// (one dot against β per candidate) instead of the O(m·k²) of solving each
// candidate afresh through Predict.
//
// The cache tracks its Sparse model across the loop's mutations:
//
//   - Append: A gains the rank-1 term u uᵀ (u = k_m/σ), so by
//     Sherman-Morrison A_new⁻¹ = A⁻¹ − z zᵀ/denom with z = A⁻¹u and
//     denom = 1 + uᵀz. Each stored wᵢ and vᵢ updates from the single
//     shared z in O(k): wᵢ ← wᵢ − z·(gᵢ/denom), vᵢ ← vᵢ − gᵢ²/denom with
//     gᵢ = z·kᵢ. That is the O(m·k) extend; the model computes z against
//     the pre-update factor and hands it over before running cholupdate.
//   - Refit / project (new hyperparameters or inducing set): every stored
//     row is wrong; the cache marks itself stale and the next Scores call
//     rebuilds all candidates in one parallel batched pass.
//   - Candidate removal: O(1) swap-delete, same scheme as ScoringCache.
//
// Determinism contract (mirrors ScoringCache, with one honest difference):
// the rebuild pass computes each candidate with exactly Predict's
// arithmetic (zEval row, Dot against β, serial scratch solve, Dot for the
// variance), so a freshly rebuilt cache agrees with Sparse.Predict
// bitwise. Sherman-Morrison-extended state is NOT bitwise against a fresh
// solve — the update is algebraically exact but rounds differently — so
// extended state is pinned to ≤1e-8 of direct scoring, and every
// Refit/project resynchronizes the cache exactly. DESIGN.md §Surrogate
// scaling records this contract.
type SparseScoringCache struct {
	s *Sparse

	// Slot-major per-candidate state; order maps pool position → slot so
	// removal swap-deletes the O(k) payload (see ScoringCache).
	xs [][]float64 // candidate features (private copies)
	km [][]float64 // kᵢ = k(xᵢ, Z)
	w  [][]float64 // wᵢ = A⁻¹kᵢ
	v  []float64   // vᵢ = kᵢ·wᵢ (SoR variance)

	order []int
	stale bool

	mu, sigma []float64 // pool-order output buffers, reused across calls
}

// NewSparseScoringCache attaches a posterior cache for the candidate rows
// of x to the fitted sparse model s. Candidate features are copied. The
// cache registers itself with s — every Append extends it, every
// projection invalidates it — until Close detaches it.
func NewSparseScoringCache(s *Sparse, x *mat.Dense) *SparseScoringCache {
	if !s.fitted {
		panic("gp: NewSparseScoringCache before Fit")
	}
	m := x.Rows()
	c := &SparseScoringCache{
		s:     s,
		xs:    make([][]float64, m),
		km:    make([][]float64, m),
		w:     make([][]float64, m),
		v:     make([]float64, m),
		order: make([]int, m),
		stale: true,
	}
	for i := 0; i < m; i++ {
		c.xs[i] = mat.CopyVec(x.Row(i))
		c.order[i] = i
	}
	s.caches = append(s.caches, c)
	return c
}

// Len reports the number of live candidates.
func (c *SparseScoringCache) Len() int { return len(c.order) }

// Close detaches the cache from its model.
func (c *SparseScoringCache) Close() {
	for i, o := range c.s.caches {
		if o == c {
			c.s.caches = append(c.s.caches[:i], c.s.caches[i+1:]...)
			break
		}
	}
}

// invalidate marks every stored row stale; called by project, i.e.
// whenever hyperparameters, the inducing set, or the factor changed
// wholesale.
func (c *SparseScoringCache) invalidate() {
	c.stale = true
	obs.CacheInvalidations.Inc()
}

// Scores returns the posterior mean and standard deviation for every live
// candidate in pool order. The returned slices are owned by the cache and
// overwritten by the next call.
func (c *SparseScoringCache) Scores() (mu, sigma []float64) {
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
	beta, yMean := c.s.beta, c.s.yMean
	k := len(beta)
	mat.ParallelFor(m, mat.ChunkFor(k+8), func(lo, hi int) {
		for p := lo; p < hi; p++ {
			s := c.order[p]
			c.mu[p] = mat.Dot(c.km[s][:k], beta) + yMean
			variance := c.v[s]
			if variance < 0 {
				variance = 0
			}
			c.sigma[p] = math.Sqrt(variance)
		}
	})
	return c.mu, c.sigma
}

// Remove deletes the candidate at pool position p by O(1) swap-delete.
func (c *SparseScoringCache) Remove(p int) {
	if p < 0 || p >= len(c.order) {
		panic(fmt.Sprintf("gp: SparseScoringCache.Remove position %d out of range %d", p, len(c.order)))
	}
	s := c.order[p]
	c.order = append(c.order[:p], c.order[p+1:]...)
	last := len(c.xs) - 1
	if s != last {
		c.xs[s], c.km[s], c.w[s] = c.xs[last], c.km[last], c.w[last]
		c.v[s] = c.v[last]
		for q, t := range c.order {
			if t == last {
				c.order[q] = s
				break
			}
		}
	}
	c.xs, c.km, c.w = c.xs[:last], c.km[:last], c.w[:last]
	c.v = c.v[:last]
}

// rebuild recomputes every candidate against the model's current inducing
// set and factor with exactly Predict's per-point arithmetic (see the type
// comment for the bitwise contract).
func (c *SparseScoringCache) rebuild() {
	obs.CacheRebuilds.Inc()
	obs.ModelCacheOps.Inc(obs.ModelCacheSparseRebuild)
	s := c.s
	k := s.z.Rows()
	mat.ParallelFor(len(c.xs), mat.ChunkFor(k*k+4*k), func(lo, hi int) {
		fwd := make([]float64, k)
		for i := lo; i < hi; i++ {
			c.km[i] = growVec(c.km[i], k)
			c.w[i] = growVec(c.w[i], k)
			s.zEval(c.xs[i], 0, c.km[i])
			// Variance through Predict's forward half-solve (bitwise
			// contract); the full solve vector is kept separately because
			// the Sherman-Morrison extend updates it in O(k).
			s.aChol.ForwardSolveVecTo(fwd, c.km[i])
			c.v[i] = mat.Dot(fwd, fwd)
			s.aChol.SolveVecToSerial(c.w[i], c.km[i])
		}
	})
	c.stale = false
}

// extendAppend absorbs one model Append via Sherman-Morrison: z = A⁻¹u
// against the pre-update factor and denom = 1 + uᵀz are shared across all
// candidates, so each slot updates in O(k). kᵢ is unchanged (the inducing
// set did not move). A stale cache skips the work.
func (c *SparseScoringCache) extendAppend(z []float64, denom float64) {
	if c.stale || len(c.xs) == 0 {
		return
	}
	obs.CacheExtends.Inc()
	obs.ModelCacheOps.Inc(obs.ModelCacheSparseExtend)
	k := len(z)
	mat.ParallelFor(len(c.xs), mat.ChunkFor(2*k+16), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g := mat.Dot(z, c.km[i][:k])
			scale := g / denom
			w := c.w[i]
			for j := range w {
				w[j] -= scale * z[j]
			}
			c.v[i] -= g * scale
		}
	})
}

// growVec resizes b to length n, reusing capacity when possible and
// over-allocating on growth so a run of appends amortizes.
func growVec(b []float64, n int) []float64 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]float64, n, n+n/2+8)
}
