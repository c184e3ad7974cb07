// Package engine is the unified campaign executor: one implementation of
// the paper's Algorithm-1 fit/score/select/feed loop that both execution
// modes share. The offline replay mode (§IV, RunReplay/RunReplayBatch)
// replays the precomputed job database; the online mode
// (internal/online.Run) proposes configurations against a live Lab. Both
// are thin environments (LoopEnv) around RunLoop, so regret accounting,
// censored-OOM semantics, obs spans, and stop conditions exist exactly
// once.
//
// On top of the loop the package provides the declarative layer: a
// string-keyed registry for policies, kernels, batch strategies, and labs;
// a versioned JSON CampaignSpec that fully describes a campaign; and
// Sweep, a bounded worker pool that executes grids of campaigns with
// per-campaign isolation and deterministic result ordering.
package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"alamr/internal/mat"
	"alamr/internal/stats"
)

// Candidates carries the model state a policy sees at one AL iteration: the
// remaining candidate configurations and the two models' predictive means
// and standard deviations for them, all in log10 response space (the space
// the models are trained in).
type Candidates struct {
	X *mat.Dense // remaining candidate feature rows

	MuCost, SigmaCost []float64 // cost model predictions (log10 node-hours)
	MuMem, SigmaMem   []float64 // memory model predictions (log10 MB)

	// MemLimitLog is log10 of the maximum allowed memory usage L_mem;
	// +Inf when no limit applies.
	MemLimitLog float64

	// Fid carries each candidate's fidelity state in multi-fidelity
	// campaigns; nil in single-fidelity runs. Fidelity-agnostic policies
	// ignore it.
	Fid *FidelityView
}

// Len returns the number of remaining candidates.
func (c *Candidates) Len() int { return len(c.MuCost) }

func (c *Candidates) validate() error {
	n := c.Len()
	if n == 0 {
		return errors.New("engine: empty candidate set")
	}
	if len(c.SigmaCost) != n || len(c.MuMem) != n || len(c.SigmaMem) != n {
		return fmt.Errorf("engine: inconsistent candidate vectors (%d/%d/%d/%d)",
			n, len(c.SigmaCost), len(c.MuMem), len(c.SigmaMem))
	}
	if c.X != nil && c.X.Rows() != n {
		return fmt.Errorf("engine: candidate matrix has %d rows for %d candidates", c.X.Rows(), n)
	}
	return nil
}

// ErrAllExceedLimit is returned by memory-aware policies when every
// remaining candidate is predicted to violate the memory limit; the AL loop
// treats it as the early-termination signal discussed in the paper (§V-D).
var ErrAllExceedLimit = errors.New("engine: all remaining candidates predicted to exceed the memory limit")

// Policy selects the next experiment from the candidate set. rng is the
// policy's private randomness stream.
type Policy interface {
	Name() string
	Select(c *Candidates, rng *rand.Rand) (int, error)
}

// RandUniform selects uniformly at random, ignoring the models — the
// paper's reference baseline.
type RandUniform struct{}

// Name implements Policy.
func (RandUniform) Name() string { return "RandUniform" }

// Select implements Policy.
func (RandUniform) Select(c *Candidates, rng *rand.Rand) (int, error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	return rng.Intn(c.Len()), nil
}

// MaxSigma selects the candidate with the largest cost-prediction
// uncertainty (uncertainty sampling / variance reduction).
type MaxSigma struct{}

// Name implements Policy.
func (MaxSigma) Name() string { return "MaxSigma" }

// Select implements Policy.
func (MaxSigma) Select(c *Candidates, rng *rand.Rand) (int, error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	_, idx := mat.MaxVec(c.SigmaCost)
	return idx, nil
}

// MinPred selects argmax(σ_cost − μ_cost) in log space. As the paper
// observes, the variation of μ dominates σ so the policy degenerates to
// greedily selecting the cheapest predicted candidate — hence its name.
type MinPred struct{}

// Name implements Policy.
func (MinPred) Name() string { return "MinPred" }

// Select implements Policy.
func (MinPred) Select(c *Candidates, rng *rand.Rand) (int, error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	best, idx := math.Inf(-1), 0
	for i := range c.MuCost {
		if v := c.SigmaCost[i] - c.MuCost[i]; v > best {
			best, idx = v, i
		}
	}
	return idx, nil
}

// RandGoodness samples a candidate from the discrete distribution
// proportional to the cost "goodness" g = Base^(σ_cost − μ_cost): mostly
// cheap candidates with occasional expensive exploration (§IV-B).
type RandGoodness struct {
	// Base of the goodness exponent; the paper argues for 10 to match the
	// log10 preprocessing (higher bases skew harder toward cheap samples).
	Base float64
}

// Name implements Policy.
func (p RandGoodness) Name() string { return "RandGoodness" }

func (p RandGoodness) base() float64 {
	if p.Base <= 1 {
		return 10
	}
	return p.Base
}

// Select implements Policy.
func (p RandGoodness) Select(c *Candidates, rng *rand.Rand) (int, error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	w, _ := goodness(c.MuCost, c.SigmaCost, nil, 0, p.base())
	return stats.SampleDiscrete(rng, w), nil
}

// RGMA is RandGoodness with Memory Awareness (Algorithm 2): candidates whose
// predicted memory is not strictly below L_mem (the classification step)
// are filtered out before the goodness draw.
type RGMA struct {
	Base float64
}

// Name implements Policy.
func (p RGMA) Name() string { return "RGMA" }

func (p RGMA) base() float64 {
	if p.Base <= 1 {
		return 10
	}
	return p.Base
}

// Select implements Policy.
func (p RGMA) Select(c *Candidates, rng *rand.Rand) (int, error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	w, ok := goodness(c.MuCost, c.SigmaCost, c.MuMem, c.MemLimitLog, p.base())
	if !ok {
		return 0, ErrAllExceedLimit
	}
	return stats.SampleDiscrete(rng, w), nil
}

// goodness computes the goodness weights Base^(σ−μ), guarding against
// overflow by shifting the exponents by their maximum: the shift cancels
// after normalization in the discrete draw. With a memory filter (muMem
// non-nil) a candidate whose predicted memory is not strictly below limit
// gets exponent −Inf and so weight +0, and the shift is the feasible
// candidates' maximum: a +0 leaves SampleDiscrete's total, its one draw and
// its pick exactly where they would be over the feasible candidates alone.
// ok reports whether any candidate is feasible.
func goodness(mu, sigma, muMem []float64, limit, base float64) (w []float64, ok bool) {
	w = make([]float64, len(mu))
	maxE := math.Inf(-1)
	for i := range w {
		if muMem != nil && !(muMem[i] < limit) {
			w[i] = math.Inf(-1)
			continue
		}
		ok = true
		w[i] = sigma[i] - mu[i]
		if w[i] > maxE {
			maxE = w[i]
		}
	}
	if !ok {
		return nil, false
	}
	for i := range w {
		w[i] -= maxE
	}
	mat.PowLanes(w, w, base)
	return w, true
}
