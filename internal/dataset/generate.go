package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"alamr/internal/amr"
	"alamr/internal/cluster"
	"alamr/internal/stats"
)

// GenConfig controls campaign generation.
type GenConfig struct {
	Seed      int64
	NumJobs   int // total jobs, paper: 600
	NumUnique int // distinct combinations, paper: 525
	RefNx     int // reference-solution resolution (default 128)
	RefTEnd   float64
	RefSnaps  int
	Machine   cluster.Machine
	Workers   int // parallel reference runs (default GOMAXPROCS)
	Subcycle  bool
	// RootsX, RootsY select the root forest of the campaign geometry
	// (default 8×4, the multi-quadrant coarse forest of the FORESTCLAW
	// shock-bubble configuration; examples use the cheaper 2×1).
	RootsX, RootsY int
	// CostBias shapes the sampling of unique combinations: selection weight
	// is cost^(-CostBias), so larger values sample the expensive corner more
	// sparsely, mirroring how the authors pre-selected their jobs to bound
	// total campaign cost (default 0.3).
	CostBias float64
}

func (c *GenConfig) setDefaults() {
	if c.NumJobs <= 0 {
		c.NumJobs = 600
	}
	if c.NumUnique <= 0 {
		c.NumUnique = 525
	}
	if c.RefNx <= 0 {
		c.RefNx = 128
	}
	if c.RefTEnd <= 0 {
		c.RefTEnd = 0.30
	}
	if c.RefSnaps <= 0 {
		c.RefSnaps = 12
	}
	if c.Machine.CoresPerNode == 0 {
		c.Machine = cluster.Edison()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CostBias <= 0 {
		c.CostBias = 0.25
	}
	if c.RootsX <= 0 {
		c.RootsX = 8
	}
	if c.RootsY <= 0 {
		c.RootsY = 4
	}
}

type physKey struct{ r0, rhoin float64 }

// Generate reproduces the paper's measurement campaign in simulation: one
// reference shock-bubble solution per physical parameter pair, a performance
// emulation for each of the 1920 grid combinations, cost-biased sampling of
// NumUnique distinct combinations plus repeats up to NumJobs, and finally a
// machine-model "run" of every selected job with seeded variability noise.
func Generate(cfg GenConfig) (*Dataset, error) {
	cfg.setDefaults()
	if cfg.NumUnique > len(AllCombos()) {
		return nil, fmt.Errorf("dataset: NumUnique %d exceeds grid size %d", cfg.NumUnique, len(AllCombos()))
	}
	if cfg.NumJobs < cfg.NumUnique {
		return nil, fmt.Errorf("dataset: NumJobs %d < NumUnique %d", cfg.NumJobs, cfg.NumUnique)
	}

	refs, err := buildReferences(cfg)
	if err != nil {
		return nil, err
	}

	combos := AllCombos()
	type emulated struct {
		combo Combo
		stats amr.EmulationStats
		base  cluster.Accounting // noise-free accounting
	}
	ems := make([]emulated, len(combos))
	var emErr error
	var emErrOnce sync.Once
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for i, c := range combos {
		wg.Add(1)
		go func(i int, c Combo) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ref := refs[physKey{c.R0, c.RhoIn}]
			st, err := amr.Emulate(ref, amr.EmulateConfig{
				Mx: c.Mx, MaxLevel: c.MaxLevel, Subcycle: cfg.Subcycle,
				RootsX: cfg.RootsX, RootsY: cfg.RootsY,
			})
			if err != nil {
				emErrOnce.Do(func() { emErr = err })
				return
			}
			acc, err := cfg.Machine.Simulate(cluster.JobSpec{Nodes: c.P, Mx: c.Mx, Stats: st}, nil)
			if err != nil {
				emErrOnce.Do(func() { emErr = err })
				return
			}
			ems[i] = emulated{combo: c, stats: st, base: acc}
		}(i, c)
	}
	wg.Wait()
	if emErr != nil {
		return nil, emErr
	}

	// Cost-biased sampling of unique combinations without replacement.
	rng := stats.NewRand(cfg.Seed)
	weights := make([]float64, len(ems))
	for i, e := range ems {
		weights[i] = math.Pow(e.base.CostNodeHours, -cfg.CostBias)
	}
	chosen := sampleWithoutReplacement(rng, weights, cfg.NumUnique)

	// Repeats: the remaining slots re-measure uniformly chosen selected
	// combos (the paper's 75 second/third measurements).
	jobsIdx := append([]int(nil), chosen...)
	for len(jobsIdx) < cfg.NumJobs {
		jobsIdx = append(jobsIdx, chosen[rng.Intn(len(chosen))])
	}
	sort.Ints(jobsIdx)

	ds := &Dataset{Jobs: make([]Job, 0, cfg.NumJobs)}
	for n, ei := range jobsIdx {
		e := ems[ei]
		noise := stats.SeededRand(stats.SplitSeed(cfg.Seed, n+1))
		acc, err := cfg.Machine.Simulate(cluster.JobSpec{Nodes: e.combo.P, Mx: e.combo.Mx, Stats: e.stats}, noise)
		stats.PutRand(noise)
		if err != nil {
			return nil, err
		}
		ds.Jobs = append(ds.Jobs, Job{
			P: e.combo.P, Mx: e.combo.Mx, MaxLevel: e.combo.MaxLevel,
			R0: e.combo.R0, RhoIn: e.combo.RhoIn,
			WallSec: acc.WallClockSec,
			CostNH:  acc.CostNodeHours,
			MemMB:   acc.MaxRSSBytes / (1 << 20),
		})
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// buildReferences runs the 24 physical reference solutions in parallel.
func buildReferences(cfg GenConfig) (map[physKey]*amr.Reference, error) {
	refs := make(map[physKey]*amr.Reference)
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	sem := make(chan struct{}, cfg.Workers)
	for _, r0 := range GridR0 {
		for _, ri := range GridRhoIn {
			wg.Add(1)
			go func(r0, ri float64) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				ref, err := amr.ReferenceRun(amr.ShockBubble{R0: r0, RhoIn: ri}, cfg.RefNx, cfg.RefTEnd, cfg.RefSnaps)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("dataset: reference (r0=%g, rhoin=%g): %w", r0, ri, err)
					}
					return
				}
				refs[physKey{r0, ri}] = ref
			}(r0, ri)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return refs, nil
}

// sampleWithoutReplacement draws k distinct indices with probability
// proportional to the weights.
func sampleWithoutReplacement(rng *rand.Rand, weights []float64, k int) []int {
	w := append([]float64(nil), weights...)
	out := make([]int, 0, k)
	for len(out) < k {
		i := stats.SampleDiscrete(rng, w)
		out = append(out, i)
		w[i] = 0
	}
	return out
}
