package engine

import (
	"fmt"
	"sort"

	"alamr/internal/gp"
	"alamr/internal/mat"
)

// scorer is a campaign's candidate-scoring surface. Every candidate keeps
// one stable id for the whole campaign — its row in the pool the scorer was
// built over — so the environment indexes its own candidate table by id
// and never mirrors the pool order. The materialized PoolScorer hands the
// policy the whole remaining pool; the streamScorer (streampool.go) hands
// it a top-k shortlist.
type scorer interface {
	// Candidates scores the remaining pool (or its shortlist).
	Candidates(memLimitLog float64) *Candidates
	// ID maps pick p (a candidates-index) to its stable id.
	ID(p int) int
	// row returns the features of pick p; the view must be consumed before
	// Remove.
	row(p int) []float64
	// Remove drops the candidate with the given stable id.
	Remove(id int)
	// Len reports how many candidates remain.
	Len() int
	// FidelityGains returns the per-candidate top-fidelity information
	// gains in candidates order when the cost surrogate can provide them
	// (multi-fidelity models), nil otherwise.
	FidelityGains() []float64
	// Close detaches whatever the scorer attached to the surrogates.
	Close()
}

// PoolScorer is the materialized scorer: it predicts both surrogates over
// every remaining candidate each round. For the built-in surrogates it
// attaches the model-appropriate incremental pool cache (gp.NewPoolCache):
// ScoringCache for exact GPs (bitwise-identical to direct Predict — an
// algebraic reformulation, not an approximation), the Sherman-Morrison
// sparse cache for SoR surrogates (bitwise on rebuild, ≤1e-8 across
// incremental extends), the per-leaf-routed cache for treed surrogates
// (bitwise, inherited from the per-leaf ScoringCaches), and the co-kriging
// cache for multi-fidelity ones. A surrogate without a cache — one
// registered through RegisterModel — is scored by direct Predict.
//
// Replay and online campaigns both score through it. Ids are row indices
// of the feature matrix the scorer was built over.
type PoolScorer struct {
	costModel, memModel gp.Model
	costCache, memCache gp.PoolCache
	x                   *mat.Dense
	ids                 []int // pool position → stable id, ascending
}

// NewPoolScorer builds the materialized scorer over the candidate rows of
// x, which it owns from then on (removals compact it). A nil x is an empty
// pool — a resumed campaign whose pool is exhausted — and builds no
// caches.
func NewPoolScorer(costModel, memModel gp.Model, x *mat.Dense) *PoolScorer {
	s := &PoolScorer{costModel: costModel, memModel: memModel, x: x}
	if x == nil {
		return s
	}
	s.ids = make([]int, x.Rows())
	for i := range s.ids {
		s.ids[i] = i
	}
	s.costCache = gp.NewPoolCache(costModel, x)
	s.memCache = gp.NewPoolCache(memModel, x)
	if s.costCache == nil || s.memCache == nil {
		// Mixed or uncacheable model types: fall back to direct scoring.
		s.Close()
		s.costCache, s.memCache = nil, nil
	}
	return s
}

// Candidates scores every remaining candidate, in pool order.
func (s *PoolScorer) Candidates(memLimitLog float64) *Candidates {
	var muC, sigC, muM, sigM []float64
	if s.costCache != nil {
		muC, sigC = s.costCache.Scores()
		muM, sigM = s.memCache.Scores()
	} else {
		muC, sigC = s.costModel.Predict(s.x)
		muM, sigM = s.memModel.Predict(s.x)
	}
	return &Candidates{
		X:           s.x,
		MuCost:      muC,
		SigmaCost:   sigC,
		MuMem:       muM,
		SigmaMem:    sigM,
		MemLimitLog: memLimitLog,
	}
}

// ID maps pick p to its stable id.
func (s *PoolScorer) ID(p int) int { return s.ids[p] }

func (s *PoolScorer) row(p int) []float64 { return s.x.Row(p) }

// Len reports how many candidates remain.
func (s *PoolScorer) Len() int { return len(s.ids) }

// Remove drops candidate id from the feature matrix and both caches.
func (s *PoolScorer) Remove(id int) {
	p := sort.SearchInts(s.ids, id)
	if p == len(s.ids) || s.ids[p] != id {
		panic(fmt.Sprintf("engine: PoolScorer.Remove of unknown candidate id %d", id))
	}
	s.ids = append(s.ids[:p], s.ids[p+1:]...)
	s.x = s.x.RemoveRow(p)
	if s.costCache != nil {
		s.costCache.Remove(p)
		s.memCache.Remove(p)
	}
}

// FidelityGains serves the cost surrogate's top-fidelity information gains:
// from the multi-fidelity pool cache when one is attached, directly from
// the model otherwise, nil for single-fidelity surrogates.
func (s *PoolScorer) FidelityGains() []float64 {
	if fs, ok := s.costCache.(gp.FidelityScorer); ok {
		return fs.TopInfoGains()
	}
	if mf, ok := s.costModel.(*gp.MultiFid); ok {
		return mf.TopInfoGains(s.x)
	}
	return nil
}

// Close detaches the caches from their surrogates.
func (s *PoolScorer) Close() {
	if s.costCache != nil {
		s.costCache.Close()
	}
	if s.memCache != nil {
		s.memCache.Close()
	}
}
