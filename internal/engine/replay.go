package engine

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"alamr/internal/dataset"
	"alamr/internal/gp"
	"alamr/internal/mat"
	"alamr/internal/obs"
	"alamr/internal/stats"
)

// RunReplay executes Algorithm 1 against the offline dataset (the paper's
// replay evaluation, §IV) on one partition and returns the recorded
// trajectory.
func RunReplay(ds *dataset.Dataset, part dataset.Partition, cfg LoopConfig) (*Trajectory, error) {
	return runReplay(ds, part, cfg, 1, BatchIndependent, false)
}

// RunReplayBatch is RunReplay with q-batch selection, the parallel-selection
// scheme the paper's future work proposes: each round the (stale) models
// pick q candidates, all q simulations "run", and the models retrain once on
// the whole batch. Per-selection metrics (CC, CR, violations) are recorded
// exactly as in the sequential loop; the RMSE curves advance once per round
// — all q selections of a round share the post-round value, since that is
// the first moment a new model exists.
func RunReplayBatch(ds *dataset.Dataset, part dataset.Partition, cfg LoopConfig, q int, strategy BatchStrategy) (*Trajectory, error) {
	if q < 1 {
		return nil, fmt.Errorf("engine: batch size %d, need >= 1", q)
	}
	return runReplay(ds, part, cfg, q, strategy, true)
}

// replayEnv adapts the offline dataset to LoopEnv: "executing" a candidate
// is a table lookup into the precomputed job database. A candidate's stable
// scorer id is its row in active (the partition's Active indices).
type replayEnv struct {
	ds     *dataset.Dataset
	tr     *Trajectory
	active []int
	scorer scorer

	gpCost, gpMem     gp.Model
	xTest             *mat.Dense
	costTest, memTest []float64
	memLimitLog       float64

	// batch selects the per-round RMSE recording (and disables the
	// stability check, which is defined per-iteration).
	batch  bool
	stable *StableStopConfig

	// fid is the fidelity ladder of a multi-fidelity campaign; nil keeps
	// every scored candidate set fidelity-free.
	fid *FidelitySpec

	prevTestMu []float64
	stableRun  int
}

// job returns the dataset job behind pick p of the last Score.
func (e *replayEnv) job(p int) dataset.Job { return e.ds.Jobs[e.active[e.scorer.ID(p)]] }

func (e *replayEnv) PoolLen() int { return e.scorer.Len() }

func (e *replayEnv) Score() *Candidates {
	c := e.scorer.Candidates(e.memLimitLog)
	if e.fid != nil {
		// Candidate levels in candidates order; the partition's levels were
		// validated against the ladder up front.
		lv := make([]int, c.Len())
		for i := range lv {
			lv[i] = e.fid.LevelOf(e.job(i).MaxLevel)
		}
		c.Fid = &FidelityView{Level: lv, TopGain: e.scorer.FidelityGains()}
	}
	return c
}

func (e *replayEnv) Execute(pick int) (Execution, error) {
	ex := Execution{Job: e.job(pick)}
	if e.fid != nil {
		ex.Level = e.fid.LevelOf(ex.Job.MaxLevel)
	}
	return ex, nil
}

func (e *replayEnv) Record(pick int, _ *Candidates, ex Execution, violated bool, cumCost, cumRegret float64) {
	job := ex.Job
	e.tr.Selected = append(e.tr.Selected, e.active[e.scorer.ID(pick)])
	e.tr.SelectedCost = append(e.tr.SelectedCost, job.CostNH)
	e.tr.SelectedMem = append(e.tr.SelectedMem, job.MemMB)
	e.tr.CumCost = append(e.tr.CumCost, cumCost)
	e.tr.CumRegret = append(e.tr.CumRegret, cumRegret)
	e.tr.Violation = append(e.tr.Violation, violated)
	if e.fid != nil {
		e.tr.SelectedLevel = append(e.tr.SelectedLevel, ex.Level)
		obs.FidelitySelections.Inc(strconv.Itoa(ex.Level))
	}
}

// Absorb feeds the measurement into both models (Algorithm 1 lines 10-11):
// periodic full refit with warm-started hyperparameters, incremental rank-1
// update otherwise. The row view must be consumed before Remove shifts the
// pool matrix; Append copies it.
func (e *replayEnv) Absorb(pick int, ex Execution, refit bool) error {
	xNew := e.scorer.row(pick)
	logC := math.Log10(ex.Job.CostNH)
	logM := math.Log10(ex.Job.MemMB)
	if refit {
		return FitPair(func() error {
			if err := appendAndRefit(e.gpCost, xNew, logC); err != nil {
				return fmt.Errorf("engine: cost refit after %d selections: %w", e.tr.Iterations(), err)
			}
			return nil
		}, func() error {
			if err := appendAndRefit(e.gpMem, xNew, logM); err != nil {
				return fmt.Errorf("engine: memory refit after %d selections: %w", e.tr.Iterations(), err)
			}
			return nil
		})
	}
	if err := e.gpCost.Append(xNew, logC); err != nil {
		return fmt.Errorf("engine: cost update after %d selections: %w", e.tr.Iterations(), err)
	}
	if err := e.gpMem.Append(xNew, logM); err != nil {
		return fmt.Errorf("engine: memory update after %d selections: %w", e.tr.Iterations(), err)
	}
	return nil
}

// Remove drops the round's picks (distinct candidates-indices) from the
// scorer. Every pick is resolved to its stable id before the first removal
// reorders the candidates; the ids leave in descending order.
func (e *replayEnv) Remove(picks []int) {
	ids := make([]int, len(picks))
	for i, p := range picks {
		ids[i] = e.scorer.ID(p)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ids)))
	for _, id := range ids {
		e.scorer.Remove(id)
	}
}

func (e *replayEnv) Refit() error {
	return FitPair(func() error {
		if err := e.gpCost.Refit(); err != nil {
			return fmt.Errorf("engine: cost refit after %d selections: %w", e.tr.Iterations(), err)
		}
		return nil
	}, func() error {
		if err := e.gpMem.Refit(); err != nil {
			return fmt.Errorf("engine: memory refit after %d selections: %w", e.tr.Iterations(), err)
		}
		return nil
	})
}

func (e *replayEnv) RoundEnd(selDone, picked int) (StopReason, bool, error) {
	// One post-round RMSE value; in batch mode it is replicated across the
	// round's picks (the sequential loop has picked == 1). The cost
	// surrogate's test-set means also feed the stability check.
	muCost, _ := e.gpCost.Predict(e.xTest)
	muMem, _ := e.gpMem.Predict(e.xTest)
	cr := nonLogRMSE(muCost, e.costTest)
	mr := nonLogRMSE(muMem, e.memTest)
	for i := 0; i < picked; i++ {
		e.tr.CostRMSE = append(e.tr.CostRMSE, cr)
		e.tr.MemRMSE = append(e.tr.MemRMSE, mr)
	}

	if !e.batch && e.stable != nil {
		if e.prevTestMu != nil {
			if meanAbsDiff(muCost, e.prevTestMu) < e.stable.Tol {
				e.stableRun++
			} else {
				e.stableRun = 0
			}
			if e.stableRun >= e.stable.Window {
				e.prevTestMu = muCost
				return StopStable, true, nil
			}
		}
		e.prevTestMu = muCost
	}
	return "", false, nil
}

// runReplay is the one replay-mode entry point behind RunReplay and
// RunReplayBatch: it fits the initial surrogates, builds the replay
// environment, and hands control to the shared RunLoop.
func runReplay(ds *dataset.Dataset, part dataset.Partition, cfg LoopConfig, q int, strategy BatchStrategy, batch bool) (*Trajectory, error) {
	cfg.setDefaults()
	if cfg.Policy == nil {
		return nil, errors.New("engine: LoopConfig.Policy is required")
	}
	if err := part.Validate(ds.Len()); err != nil {
		return nil, err
	}
	if len(part.Init) == 0 || len(part.Active) == 0 || len(part.Test) == 0 {
		return nil, errors.New("engine: partition must have non-empty Init, Active, and Test")
	}
	// The Init and Active design rows are built in one pass each that also
	// checks every job a loop will log-transform, Init first and before any
	// fit: a bad response is a classified dataset.ErrBadResponse, never a
	// silent NaN in a surrogate's training set.
	xInit, err := ds.CheckedFeatures(part.Init, cfg.Log2P)
	var xActive *mat.Dense
	if err == nil {
		xActive, err = ds.CheckedFeatures(part.Active, cfg.Log2P)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: dataset fails the log-transform precondition: %w", err)
	}
	if fid := cfg.Fidelity; fid != nil {
		if batch {
			return nil, errors.New("engine: fidelity campaigns do not support batch selection")
		}
		if err := fid.Validate(); err != nil {
			return nil, err
		}
		// Validate the whole partition against the ladder up front so the
		// per-round level lookups cannot miss mid-campaign.
		for _, idx := range [][]int{part.Init, part.Active, part.Test} {
			for _, i := range idx {
				if l := ds.Jobs[i].MaxLevel; fid.LevelOf(l) < 0 {
					return nil, fmt.Errorf("engine: job %d: maxlevel %d is off the fidelity ladder %v", i, l, fid.Levels)
				}
			}
		}
		obs.FidelityLevels.Set(float64(len(fid.Levels)))
	}

	var xTest *mat.Dense
	if cfg.Log2P {
		xTest = ds.FeaturesLog2P(part.Test)
	} else {
		xTest = ds.Features(part.Test)
	}
	costTest := ds.Cost(part.Test)
	memTest := ds.Mem(part.Test)

	gpCost, err := cfg.newModel()
	if err != nil {
		return nil, err
	}
	gpMem, err := cfg.newModel()
	if err != nil {
		return nil, err
	}
	logCost, logMem := ds.LogCost(part.Init), ds.LogMem(part.Init)
	spFit := obs.SpanFit.Start()
	err = FitPair(func() error {
		if err := gpCost.Fit(xInit, logCost); err != nil {
			return fmt.Errorf("engine: initial cost fit: %w", err)
		}
		return nil
	}, func() error {
		if err := gpMem.Fit(xInit, logMem); err != nil {
			return fmt.Errorf("engine: initial memory fit: %w", err)
		}
		return nil
	})
	spFit.End()
	if err != nil {
		return nil, err
	}
	// Subsequent refits warm start from the previous optimum (Algorithm 1's
	// note); random restarts are only needed for the initial fit.
	gpCost.SetRestarts(0)
	gpMem.SetRestarts(0)

	name := cfg.Policy.Name()
	if batch {
		name = fmt.Sprintf("%s[q=%d,%s]", cfg.Policy.Name(), q, strategy)
	}
	tr := &Trajectory{
		Policy: name,
		NInit:  len(part.Init),
		Seed:   cfg.Seed,
	}
	muCost, _ := gpCost.Predict(xTest)
	muMem, _ := gpMem.Predict(xTest)
	tr.InitCostRMSE = nonLogRMSE(muCost, costTest)
	tr.InitMemRMSE = nonLogRMSE(muMem, memTest)

	rng := stats.NewRand(stats.SplitSeed(cfg.Seed, 0))

	maxSel := len(part.Active)
	if cfg.MaxIterations > 0 && cfg.MaxIterations < maxSel {
		maxSel = cfg.MaxIterations
	}
	if cfg.Stable != nil {
		cfg.Stable.setDefaults()
	}
	memLimitRaw, memLimitLog := memLimits(cfg.MemLimitMB)

	// The scorer owns the pool features for the whole run: candidates are
	// re-scored each round through the incremental posterior caches (or
	// the streamed sharded top-k pool, see LoopConfig.Pool), and each
	// candidate's stable id is its row in part.Active.
	var sc scorer
	if cfg.Pool != nil {
		if batch {
			return nil, errors.New("engine: streamed pool and batch selection are mutually exclusive")
		}
		if err := checkStreamedPolicy(cfg.Policy.Name()); err != nil {
			return nil, err
		}
		sc = newStreamScorer(gpCost, gpMem, xActive, cfg.Pool)
	} else {
		sc = NewPoolScorer(gpCost, gpMem, xActive)
	}
	defer sc.Close()
	env := &replayEnv{
		ds:          ds,
		tr:          tr,
		active:      part.Active,
		scorer:      sc,
		gpCost:      gpCost,
		gpMem:       gpMem,
		xTest:       xTest,
		costTest:    costTest,
		memTest:     memTest,
		memLimitLog: memLimitLog,
		batch:       batch,
		stable:      cfg.Stable,
		fid:         cfg.Fidelity,
	}

	tr.Reason = StopPoolExhausted
	reason, err := RunLoop(env, LoopParams{
		Policy:        cfg.Policy,
		RNG:           rng,
		MaxSel:        maxSel,
		HyperoptEvery: cfg.HyperoptEvery,
		Q:             q,
		Strategy:      strategy,
		MemLimitRaw:   memLimitRaw,
		MemLimitMB:    cfg.MemLimitMB,
		Campaign:      cfg.Campaign,
		Stop:          cfg.Stop,
	})
	if err != nil {
		return nil, err
	}
	if reason != "" {
		tr.Reason = reason
	}
	if tr.Reason == StopPoolExhausted && sc.Len() > 0 {
		tr.Reason = StopMaxIterations
	}
	tr.FinalHyperCost = gpCost.Hyperparams()
	tr.FinalHyperMem = gpMem.Hyperparams()
	return tr, nil
}

func appendAndRefit(g gp.Model, x []float64, y float64) error {
	if err := g.Append(x, y); err != nil {
		return err
	}
	return g.Refit()
}

// nonLogRMSE evaluates the paper's error metric (eq. 10): the predicted
// test-set means mu are exponentiated back to the raw response scale and
// compared with the unmodified test measurements. mu is left unchanged.
func nonLogRMSE(mu, actual []float64) float64 {
	pred := make([]float64, len(mu))
	mat.PowLanes(pred, mu, 10)
	return stats.RMSE(pred, actual)
}

func meanAbsDiff(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s / float64(len(a))
}
