package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/remotelab"
	"alamr/internal/serve"
	"alamr/internal/stats"
)

// replayCampaign checks one replay result against its spec and records it.
func replayCampaign(spec engine.CampaignSpec, v any, wall float64) (campaign, error) {
	tr, ok := v.(*engine.Trajectory)
	if !ok {
		return campaign{}, fmt.Errorf("gate: campaign %s returned %T, want a trajectory", spec.Name, v)
	}
	n := tr.Iterations()
	if n < spec.MaxIterations && !explainsShortRun[tr.Reason] {
		return campaign{}, fmt.Errorf("gate: campaign %s stopped after %d of %d selections (reason %q)",
			spec.Name, n, spec.MaxIterations, tr.Reason)
	}
	if n == 0 {
		return campaign{}, fmt.Errorf("gate: campaign %s made no selection (reason %q)", spec.Name, tr.Reason)
	}
	data, err := serve.MarshalResult(tr)
	if err != nil {
		return campaign{}, err
	}
	return campaign{
		key:        spec.Name,
		wall:       wall,
		queueWait:  -1,
		digest:     sha256.Sum256(data),
		selections: n,
		quality: quality{
			costRMSE:  tr.CostRMSE[n-1],
			cumCost:   tr.CumCost[n-1],
			cumRegret: tr.CumRegret[n-1],
			mape:      nan,
		},
	}, nil
}

// pool1e5 is the canonical streamed sparse campaign (replay-sparse.json:
// maxsigma, sparse GP with 128 inducing points, streamed pool, approximate
// pruning) over about 10⁵ synthetic jobs, cut to poolSelections
// selections.
type pool1e5 struct {
	seed  int64
	specs []engine.CampaignSpec
	ds    *dataset.Dataset
	gens  []float64
}

// poolInputs is how many partitions of the pool one run cycles through.
const poolInputs = 3

// poolSelections sizes one pool-1e5 campaign; scoring 10⁵ candidates takes
// about a third of a second per selection on a 2-core machine.
const poolSelections = 20

// Pool lattice: the paper's p/mx/maxlevel grid × poolR0 × poolRhoIn fine
// (r0, rhoin) points = 80 × 1250 = 100,000 jobs.
const (
	poolR0    = 25
	poolRhoIn = 50
)

func newPool1e5(seed int64, _ string) (workload, error) {
	spec, err := engine.LoadCampaignSpec("examples/specs/replay-sparse.json")
	if err != nil {
		return nil, err
	}
	w := &pool1e5{seed: seed}
	for i := 0; i < poolInputs; i++ {
		s := spec
		r := *spec.Replay
		r.PartitionSeed = stats.SplitSeed(seed, 2*i+1)
		s.Replay = &r
		s.Seed = stats.SplitSeed(seed, 2*i)
		s.MaxIterations = poolSelections
		s.Name = fmt.Sprintf("%s-p%d", spec.Name, i)
		if err := s.Validate(); err != nil {
			return nil, err
		}
		w.specs = append(w.specs, s)
	}
	return w, nil
}

// genPool builds the synthetic pool for a seed: every job of the lattice,
// measured by the analytic SynthLab with a per-job noise seed.
func genPool(seed int64) (*dataset.Dataset, error) {
	r0s := stats.Linspace(dataset.GridR0[0], dataset.GridR0[len(dataset.GridR0)-1], poolR0)
	rhos := stats.Linspace(dataset.GridRhoIn[0], dataset.GridRhoIn[len(dataset.GridRhoIn)-1], poolRhoIn)
	var lab remotelab.SynthLab
	ds := &dataset.Dataset{Jobs: make([]dataset.Job, 0, len(dataset.GridP)*len(dataset.GridMx)*len(dataset.GridMaxLevel)*poolR0*poolRhoIn)}
	for _, p := range dataset.GridP {
		for _, mx := range dataset.GridMx {
			for _, ml := range dataset.GridMaxLevel {
				for _, r0 := range r0s {
					for _, rho := range rhos {
						c := dataset.Combo{P: p, Mx: mx, MaxLevel: ml, R0: r0, RhoIn: rho}
						job, err := lab.RunSeeded(c, stats.SplitSeed(seed, len(ds.Jobs)))
						if err != nil {
							return nil, err
						}
						ds.Jobs = append(ds.Jobs, job)
					}
				}
			}
		}
	}
	return ds, ds.CheckResponses(nil)
}

func (w *pool1e5) setup() error {
	t0 := time.Now()
	ds, err := genPool(w.seed)
	if err != nil {
		return err
	}
	w.gens = append(w.gens, time.Since(t0).Seconds())
	w.ds = ds
	return nil
}

func (w *pool1e5) inputs() int { return len(w.specs) }

func (w *pool1e5) unit(u int) ([]campaign, error) {
	spec := w.specs[u%len(w.specs)]
	t0 := time.Now()
	v, err := engine.RunCampaignSpec(context.Background(), spec, w.ds, nil)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("gate: campaign %s: %w", spec.Name, err)
	}
	c, err := replayCampaign(spec, v, wall)
	return []campaign{c}, err
}

func (w *pool1e5) poolSize() int {
	if w.ds == nil {
		return 0
	}
	return w.ds.Len()
}

func (w *pool1e5) check() error { return nil }

func (w *pool1e5) layers(m metrics, _ phase) {
	m.set("dataset.gen_s", median(w.gens), "s", len(w.gens))
}

func (w *pool1e5) requests() (int, int) { return 0, 0 }
func (w *pool1e5) close() error         { return nil }
