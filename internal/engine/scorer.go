package engine

import (
	"alamr/internal/gp"
	"alamr/internal/mat"
)

// scorer is the replay loop's candidate-scoring surface. The materialized
// poolScorer hands the policy the whole remaining pool; the streamScorer
// (streampool.go) hands it a top-k shortlist whose picks translate back to
// pool positions.
type scorer interface {
	candidates(memLimitLog float64) *Candidates
	// row returns the features of pick p (a candidates-index); the view
	// must be consumed before remove shifts the pool.
	row(p int) []float64
	// translate maps pick p (a candidates-index) to its pool position.
	translate(p int) int
	// remove drops the candidate at pool position p.
	remove(p int)
	// fidelityGains returns the per-candidate top-fidelity information
	// gains in candidates order when the cost surrogate can provide them
	// (multi-fidelity models), nil otherwise.
	fidelityGains() []float64
	close()
}

// poolScorer produces candidate predictions for the remaining pool each
// iteration. Unless direct scoring is forced it attaches the
// model-appropriate incremental pool cache (gp.NewPoolCache): ScoringCache
// for exact GPs (bitwise-identical to direct Predict — an algebraic
// reformulation, not an approximation), the Sherman-Morrison sparse cache
// for SoR surrogates (bitwise on rebuild, ≤1e-8 across incremental
// extends), and the per-leaf-routed cache for treed surrogates (bitwise,
// inherited from the per-leaf ScoringCaches).
type poolScorer struct {
	costModel, memModel gp.Model
	costCache, memCache gp.PoolCache
	x                   *mat.Dense
}

func newPoolScorer(costModel, memModel gp.Model, x *mat.Dense, direct bool) *poolScorer {
	s := &poolScorer{costModel: costModel, memModel: memModel, x: x}
	if !direct {
		s.costCache = gp.NewPoolCache(costModel, x)
		s.memCache = gp.NewPoolCache(memModel, x)
		if s.costCache == nil || s.memCache == nil {
			// Mixed or uncacheable model types: fall back to direct scoring.
			if s.costCache != nil {
				s.costCache.Close()
			}
			if s.memCache != nil {
				s.memCache.Close()
			}
			s.costCache, s.memCache = nil, nil
		}
	}
	return s
}

func (s *poolScorer) candidates(memLimitLog float64) *Candidates {
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

func (s *poolScorer) row(p int) []float64 { return s.x.Row(p) }

func (s *poolScorer) translate(p int) int { return p }

func (s *poolScorer) remove(p int) {
	s.x = s.x.RemoveRow(p)
	if s.costCache != nil {
		s.costCache.Remove(p)
		s.memCache.Remove(p)
	}
}

// fidelityGains serves the cost surrogate's top-fidelity information gains:
// from the multi-fidelity pool cache when one is attached, directly from
// the model on the direct-scoring path, nil for single-fidelity surrogates.
func (s *poolScorer) fidelityGains() []float64 {
	if fs, ok := s.costCache.(gp.FidelityScorer); ok {
		return fs.TopInfoGains()
	}
	if mf, ok := s.costModel.(*gp.MultiFid); ok {
		return mf.TopInfoGains(s.x)
	}
	return nil
}

func (s *poolScorer) close() {
	if s.costCache != nil {
		s.costCache.Close()
		s.memCache.Close()
	}
}
