package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"alamr/internal/dataset"
	"alamr/internal/mat"
	"alamr/internal/stats"
)

// FidelitySpec is the versioned CampaignSpec block that turns a campaign
// multi-fidelity: candidates become (point, fidelity) pairs where the
// fidelity dial is the AMR refinement depth MaxLevel, the surrogates become
// co-kriging models over the ladder (gp.MultiFid), and the acquisition may
// choose which rung to run, not just which point. A spec without this block
// compiles down to the exact single-fidelity code paths.
type FidelitySpec struct {
	// Levels are the MaxLevel grid values forming the ladder, strictly
	// ascending; the last entry is the top (target) fidelity the campaign
	// is accountable for (test error is measured there).
	Levels []int `json:"levels"`
	// InitPerLevel is how many Init jobs the replay partition draws per
	// ladder level (default: the replay section's n_init, i.e. n_init
	// seeds at every rung).
	InitPerLevel int `json:"init_per_level,omitempty"`
}

// Validate checks the ladder's structure against the dataset grid. The spec
// layer calls it from CampaignSpec.Validate; direct online.Config users call
// it themselves (online.Run does).
func (f *FidelitySpec) Validate() error {
	if len(f.Levels) == 0 {
		return errors.New("engine: fidelity spec needs at least one level")
	}
	if len(f.Levels) > len(dataset.GridMaxLevel) {
		return fmt.Errorf("engine: fidelity ladder has %d levels, the maxlevel grid has %d", len(f.Levels), len(dataset.GridMaxLevel))
	}
	for i, l := range f.Levels {
		if !onMaxLevelGrid(l) {
			return fmt.Errorf("engine: fidelity level %d is not on the maxlevel grid %v", l, dataset.GridMaxLevel)
		}
		if i > 0 && l <= f.Levels[i-1] {
			return fmt.Errorf("engine: fidelity levels must be strictly ascending, got %v", f.Levels)
		}
	}
	if f.InitPerLevel < 0 {
		return fmt.Errorf("engine: fidelity init_per_level must be >= 0, got %d", f.InitPerLevel)
	}
	return nil
}

func onMaxLevelGrid(l int) bool {
	for _, g := range dataset.GridMaxLevel {
		if l == g {
			return true
		}
	}
	return false
}

// ScaledLadder returns the ladder's dial values on the scaled feature axis
// (the dataset.FidelityFeature column the surrogates see).
func (f *FidelitySpec) ScaledLadder() []float64 {
	out := make([]float64, len(f.Levels))
	for i, l := range f.Levels {
		out[i] = dataset.ScaleMaxLevel(l)
	}
	return out
}

// TopLevel returns the MaxLevel value of the ladder's top rung.
func (f *FidelitySpec) TopLevel() int { return f.Levels[len(f.Levels)-1] }

// LevelOf resolves a MaxLevel dial value to its ladder index, or -1 when the
// value is off the ladder. The ladder is at most len(dataset.GridMaxLevel)
// entries, so the linear scan is the cheap option even per candidate.
func (f *FidelitySpec) LevelOf(maxLevel int) int {
	for i, l := range f.Levels {
		if l == maxLevel {
			return i
		}
	}
	return -1
}

// Filter returns the subset of the dataset whose jobs sit on the fidelity
// ladder, in dataset order. Replay campaigns run against the filtered
// dataset, so a fidelity Trajectory's Selected indices refer to it.
func (f *FidelitySpec) Filter(ds *dataset.Dataset) *dataset.Dataset {
	out := &dataset.Dataset{}
	for _, j := range ds.Jobs {
		if f.LevelOf(j.MaxLevel) >= 0 {
			out.Jobs = append(out.Jobs, j)
		}
	}
	return out
}

// split is the fidelity-aware replacement for dataset.Split: the Test
// partition is drawn from top-rung jobs only (the campaign is evaluated at
// the target fidelity), Init draws perLevel seeds from every rung so each
// δ-GP starts fitted, and everything else stays Active. One shuffled pass
// assigns every index, so the partition covers the dataset exactly once.
func (f *FidelitySpec) split(ds *dataset.Dataset, nInit, nTest int, rng *rand.Rand) (dataset.Partition, error) {
	if nTest < 1 {
		return dataset.Partition{}, fmt.Errorf("dataset: nTest = %d, need >= 1", nTest)
	}
	perLevel := f.InitPerLevel
	if perLevel <= 0 {
		perLevel = nInit
	}
	if perLevel < 1 {
		return dataset.Partition{}, fmt.Errorf("engine: fidelity split needs init_per_level >= 1, got %d", perLevel)
	}
	counts := make([]int, len(f.Levels))
	for i, j := range ds.Jobs {
		li := f.LevelOf(j.MaxLevel)
		if li < 0 {
			return dataset.Partition{}, fmt.Errorf(
				"engine: job %d has maxlevel %d off the ladder %v (filter the dataset with FidelitySpec.Filter first)",
				i, j.MaxLevel, f.Levels)
		}
		counts[li]++
	}
	top := len(f.Levels) - 1
	if counts[top] < nTest+perLevel+1 {
		return dataset.Partition{}, fmt.Errorf(
			"engine: top fidelity level %d has %d jobs, needs >= %d (n_test + init + 1 active)",
			f.Levels[top], counts[top], nTest+perLevel+1)
	}
	for li, c := range counts {
		if c < perLevel {
			return dataset.Partition{}, fmt.Errorf(
				"engine: fidelity level %d has %d jobs, needs >= %d init seeds", f.Levels[li], c, perLevel)
		}
	}

	perm := stats.Shuffle(rng, ds.Len())
	var p dataset.Partition
	testLeft := nTest
	initLeft := make([]int, len(f.Levels))
	for i := range initLeft {
		initLeft[i] = perLevel
	}
	for _, i := range perm {
		li := f.LevelOf(ds.Jobs[i].MaxLevel)
		switch {
		case li == top && testLeft > 0:
			p.Test = append(p.Test, i)
			testLeft--
		case initLeft[li] > 0:
			p.Init = append(p.Init, i)
			initLeft[li]--
		default:
			p.Active = append(p.Active, i)
		}
	}
	return p, nil
}

// FidelityView is the per-candidate fidelity state a multi-fidelity
// campaign attaches to the Candidates a policy scores.
type FidelityView struct {
	// Level is each candidate's ladder index (0 = cheapest rung).
	Level []int
	// TopGain is each candidate's predicted top-fidelity information gain
	// w_l²·σ_δl²(x) — how much observing it at its own rung shrinks the
	// top-rung posterior variance (nil when the surrogate cannot say).
	TopGain []float64
}

// CostPerInfo is the multi-fidelity acquisition: among the candidates
// predicted to satisfy the memory limit, select the one maximizing
// predicted top-fidelity information per predicted dollar,
//
//	score(x, l) = w_l²·σ_δl²(x) / 10^μ_cost(x, l).
//
// Because cheap rungs divide by orders-of-magnitude smaller predicted
// costs, the policy spends low-fidelity first and escalates to expensive
// rungs only when the cheap ones stop carrying top-level information
// (their δ variance collapses or the ladder correlation ρ decays). The
// argmax is deterministic (first maximum wins). It requires a fidelity
// campaign: scoring without a FidelityView is an error.
type CostPerInfo struct{}

// Name implements Policy.
func (CostPerInfo) Name() string { return "CostPerInfo" }

// Select implements Policy.
func (CostPerInfo) Select(c *Candidates, rng *rand.Rand) (int, error) {
	if err := c.validate(); err != nil {
		return 0, err
	}
	if c.Fid == nil || len(c.Fid.TopGain) != c.Len() {
		return 0, errors.New("engine: CostPerInfo needs per-candidate fidelity gains (multi-fidelity campaigns only)")
	}
	// The predicted costs 10^μ, a stack block at a time; the argmax starts
	// from the first candidate predicted to satisfy the memory limit.
	var cost [256]float64
	best, bestIdx := math.Inf(-1), -1
	for lo := 0; lo < c.Len(); lo += len(cost) {
		hi := min(lo+len(cost), c.Len())
		mat.PowLanes(cost[:hi-lo], c.MuCost[lo:hi], 10)
		for i := lo; i < hi; i++ {
			if !(c.MuMem[i] < c.MemLimitLog) {
				continue
			}
			if bestIdx < 0 {
				bestIdx = i
			}
			if v := c.Fid.TopGain[i] / cost[i-lo]; v > best {
				best, bestIdx = v, i
			}
		}
	}
	if bestIdx < 0 {
		return 0, ErrAllExceedLimit
	}
	return bestIdx, nil
}

// isCostPerInfo reports whether a policy spec names the multi-fidelity
// acquisition (which cannot run without a fidelity section).
func isCostPerInfo(name string) bool {
	n := normName(name)
	return n == "costperinfo" || n == "cpi"
}

func init() {
	RegisterPolicy("costperinfo", func(PolicySpec) (Policy, error) { return CostPerInfo{}, nil })
	RegisterPolicy("cpi", func(PolicySpec) (Policy, error) { return CostPerInfo{}, nil })
}
