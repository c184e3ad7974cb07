package experiments

import (
	"errors"
	"fmt"
	"runtime"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/stats"
)

// BatchSpec pairs a policy with an initial-partition size.
type BatchSpec struct {
	Policy engine.Policy
	NInit  int
}

// Key identifies the spec in batch results.
func (s BatchSpec) Key() string { return fmt.Sprintf("%s/ninit=%d", s.Policy.Name(), s.NInit) }

// BatchConfig drives a family of AL trajectories: every spec runs on every
// random partition, in parallel (the Go analogue of the paper's
// multiprocessing batch mode).
type BatchConfig struct {
	Specs      []BatchSpec
	NTest      int // test partition size (default 200)
	Partitions int // random partitions per spec (default 10)
	Workers    int // goroutines (default GOMAXPROCS)
	Seed       int64
	// Template provides the loop settings shared by all runs (memory limit,
	// iteration cap, kernel, ...); Policy and Seed are overridden per run.
	Template engine.LoopConfig
}

func (c *BatchConfig) setDefaults() {
	if c.NTest <= 0 {
		c.NTest = 200
	}
	if c.Partitions <= 0 {
		c.Partitions = 10
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// RunBatch executes every (spec, partition) combination on the engine's
// sweep runner and groups the trajectories by spec key. Partitions are
// shared across specs with the same NInit so policies are compared on
// identical data splits; all randomness is derived deterministically from
// cfg.Seed.
//
// Worker failures are isolated by the sweep: a task that errors (or panics)
// does not abort the batch or discard its siblings. All completed
// trajectories are returned grouped as usual, alongside an error joining
// every per-task failure — callers distinguish "all good" (nil error),
// "partial" (non-nil error, non-empty map), and "nothing" (non-nil error,
// empty map).
func RunBatch(ds *dataset.Dataset, cfg BatchConfig) (map[string][]*engine.Trajectory, error) {
	cfg.setDefaults()
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("experiments: RunBatch needs at least one spec")
	}

	type task struct {
		spec BatchSpec
		part dataset.Partition
		seed int64
	}
	var tasks []task
	for pi := 0; pi < cfg.Partitions; pi++ {
		// One partition per (partition index, nInit): identical splits for
		// every policy at the same nInit.
		parts := make(map[int]dataset.Partition)
		for _, spec := range cfg.Specs {
			part, ok := parts[spec.NInit]
			if !ok {
				rng := stats.NewRand(stats.SplitSeed(cfg.Seed, pi*1000+spec.NInit))
				var err error
				part, err = dataset.Split(ds, spec.NInit, cfg.NTest, rng)
				if err != nil {
					return nil, err
				}
				parts[spec.NInit] = part
			}
			tasks = append(tasks, task{
				spec: spec,
				part: part,
				seed: stats.SplitSeed(cfg.Seed, 7919*pi+len(tasks)),
			})
		}
	}

	items := make([]engine.SweepItem, len(tasks))
	for i := range tasks {
		tk := tasks[i]
		items[i] = engine.SweepItem{
			ID: fmt.Sprintf("%d:%s", i, tk.spec.Key()),
			Run: func(scope *engine.CampaignObs) (any, error) {
				loopCfg := cfg.Template
				loopCfg.Policy = tk.spec.Policy
				loopCfg.Seed = tk.seed
				loopCfg.Campaign = scope
				return engine.RunReplay(ds, tk.part, loopCfg)
			},
		}
	}
	results, _ := engine.Sweep(engine.SweepConfig{Workers: cfg.Workers, Items: items})

	var failures []error
	grouped := make(map[string][]*engine.Trajectory)
	for i, r := range results {
		if r.Err != nil {
			failures = append(failures, fmt.Errorf("experiments: batch task %d (%s): %w", i, tasks[i].spec.Key(), r.Err))
			continue
		}
		grouped[tasks[i].spec.Key()] = append(grouped[tasks[i].spec.Key()], r.Value.(*engine.Trajectory))
	}
	return grouped, errors.Join(failures...)
}

// CurveSet extracts one named per-iteration series from each trajectory.
func CurveSet(trs []*engine.Trajectory, metric string) ([][]float64, error) {
	out := make([][]float64, len(trs))
	for i, tr := range trs {
		switch metric {
		case "cost-rmse":
			out[i] = tr.CostRMSE
		case "mem-rmse":
			out[i] = tr.MemRMSE
		case "cum-cost":
			out[i] = tr.CumCost
		case "cum-regret":
			out[i] = tr.CumRegret
		default:
			return nil, fmt.Errorf("experiments: unknown metric %q", metric)
		}
	}
	return out, nil
}

// AggregateCurves computes the pointwise median and IQR band of a metric
// across trajectories.
func AggregateCurves(trs []*engine.Trajectory, metric string) (stats.Band, error) {
	series, err := CurveSet(trs, metric)
	if err != nil {
		return stats.Band{}, err
	}
	return stats.AggregateBand(series, 0.25, 0.75), nil
}
