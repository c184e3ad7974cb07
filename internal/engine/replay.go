package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

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
// is a table lookup into the precomputed job database.
type replayEnv struct {
	ds        *dataset.Dataset
	tr        *Trajectory
	remaining []int
	scorer    scorer

	gpCost, gpMem     gp.Model
	xTest             *mat.Dense
	costTest, memTest []float64
	memLimitLog       float64

	// batch selects the per-round RMSE recording (and disables the
	// stability check, which is defined per-iteration).
	batch  bool
	stable *StableStopConfig

	// fid is the fidelity ladder bookkeeping of a multi-fidelity campaign;
	// nil keeps every scored candidate set fidelity-free.
	fid *fidelityRuntime

	prevTestMu []float64
	stableRun  int
}

func (e *replayEnv) PoolLen() int { return len(e.remaining) }

func (e *replayEnv) Score() *Candidates {
	c := e.scorer.candidates(e.memLimitLog)
	if e.fid != nil {
		// Candidate levels in candidates order (identity translate for the
		// materialized pool, shortlist translate for the streamed one); the
		// partition's levels were validated against the ladder up front.
		lv := make([]int, c.Len())
		for i := range lv {
			lv[i], _ = e.fid.level(e.ds.Jobs[e.remaining[e.scorer.translate(i)]].MaxLevel)
		}
		c.Fid = &FidelityView{Level: lv, TopGain: e.scorer.fidelityGains()}
	}
	return c
}

func (e *replayEnv) Execute(pick int) (Execution, error) {
	ex := Execution{Job: e.ds.Jobs[e.remaining[e.scorer.translate(pick)]]}
	if e.fid != nil {
		ex.Level, _ = e.fid.level(ex.Job.MaxLevel)
	}
	return ex, nil
}

func (e *replayEnv) Record(pick int, _ *Candidates, ex Execution, violated bool, cumCost, cumRegret float64) {
	job := ex.Job
	e.tr.Selected = append(e.tr.Selected, e.remaining[e.scorer.translate(pick)])
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
		if err := appendAndRefit(e.gpCost, xNew, logC); err != nil {
			return fmt.Errorf("engine: cost refit after %d selections: %w", e.tr.Iterations(), err)
		}
		if err := appendAndRefit(e.gpMem, xNew, logM); err != nil {
			return fmt.Errorf("engine: memory refit after %d selections: %w", e.tr.Iterations(), err)
		}
		return nil
	}
	if err := e.gpCost.Append(xNew, logC); err != nil {
		return fmt.Errorf("engine: cost update after %d selections: %w", e.tr.Iterations(), err)
	}
	if err := e.gpMem.Append(xNew, logM); err != nil {
		return fmt.Errorf("engine: memory update after %d selections: %w", e.tr.Iterations(), err)
	}
	return nil
}

// Remove drops the round's picks: the index slice is rebuilt via a drop
// set, the scorer in descending position order (so earlier removals do not
// shift later positions). Picks arrive as candidates-indices and are
// translated to pool positions first (identity for the materialized pool).
func (e *replayEnv) Remove(picks []int) {
	// Translate before any removal shifts positions.
	pos := make([]int, len(picks))
	drop := make(map[int]bool, len(picks))
	for i, p := range picks {
		pos[i] = e.scorer.translate(p)
		drop[pos[i]] = true
	}
	next := e.remaining[:0]
	for i, idx := range e.remaining {
		if !drop[i] {
			next = append(next, idx)
		}
	}
	e.remaining = next
	sort.Ints(pos)
	for i := len(pos) - 1; i >= 0; i-- {
		e.scorer.remove(pos[i])
	}
}

func (e *replayEnv) Refit() error {
	if err := e.gpCost.Refit(); err != nil {
		return fmt.Errorf("engine: cost refit after %d selections: %w", e.tr.Iterations(), err)
	}
	if err := e.gpMem.Refit(); err != nil {
		return fmt.Errorf("engine: memory refit after %d selections: %w", e.tr.Iterations(), err)
	}
	return nil
}

func (e *replayEnv) RoundEnd(selDone, picked int) (StopReason, bool, error) {
	// One post-round RMSE value; in batch mode it is replicated across the
	// round's picks (the sequential loop has picked == 1).
	cr := nonLogRMSE(e.gpCost, e.xTest, e.costTest)
	mr := nonLogRMSE(e.gpMem, e.xTest, e.memTest)
	for i := 0; i < picked; i++ {
		e.tr.CostRMSE = append(e.tr.CostRMSE, cr)
		e.tr.MemRMSE = append(e.tr.MemRMSE, mr)
	}

	if !e.batch && e.stable != nil {
		muTest, _ := e.gpCost.Predict(e.xTest)
		if e.prevTestMu != nil {
			if meanAbsDiff(muTest, e.prevTestMu) < e.stable.Tol {
				e.stableRun++
			} else {
				e.stableRun = 0
			}
			if e.stableRun >= e.stable.Window {
				e.prevTestMu = muTest
				return StopStable, true, nil
			}
		}
		e.prevTestMu = muTest
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
	if err := checkLogPrecondition(ds, part); err != nil {
		return nil, err
	}
	var fid *fidelityRuntime
	if cfg.Fidelity != nil {
		if batch {
			return nil, errors.New("engine: fidelity campaigns do not support batch selection")
		}
		if err := cfg.Fidelity.Validate(); err != nil {
			return nil, err
		}
		fid = newFidelityRuntime(cfg.Fidelity)
		// Validate the whole partition against the ladder up front so the
		// per-round level lookups cannot fail mid-campaign.
		for _, idx := range [][]int{part.Init, part.Active, part.Test} {
			for _, i := range idx {
				if _, err := fid.level(ds.Jobs[i].MaxLevel); err != nil {
					return nil, fmt.Errorf("engine: job %d: %w", i, err)
				}
			}
		}
		obs.FidelityLevels.Set(float64(len(cfg.Fidelity.Levels)))
	}

	features := func(idx []int) *mat.Dense {
		if cfg.Log2P {
			return ds.FeaturesLog2P(idx)
		}
		return ds.Features(idx)
	}

	xInit := features(part.Init)
	xTest := features(part.Test)
	costTest := ds.Cost(part.Test)
	memTest := ds.Mem(part.Test)

	spFit := obs.SpanFit.Start()
	gpCost, err := cfg.newModel()
	if err != nil {
		spFit.End()
		return nil, err
	}
	if err := gpCost.Fit(xInit, ds.LogCost(part.Init)); err != nil {
		spFit.End()
		return nil, fmt.Errorf("engine: initial cost fit: %w", err)
	}
	gpMem, err := cfg.newModel()
	if err != nil {
		spFit.End()
		return nil, err
	}
	if err := gpMem.Fit(xInit, ds.LogMem(part.Init)); err != nil {
		spFit.End()
		return nil, fmt.Errorf("engine: initial memory fit: %w", err)
	}
	spFit.End()
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
	tr.InitCostRMSE = nonLogRMSE(gpCost, xTest, costTest)
	tr.InitMemRMSE = nonLogRMSE(gpMem, xTest, memTest)

	remaining := append([]int(nil), part.Active...)
	rng := rand.New(rand.NewSource(stats.SplitSeed(cfg.Seed, 0)))

	maxSel := len(remaining)
	if cfg.MaxIterations > 0 && cfg.MaxIterations < maxSel {
		maxSel = cfg.MaxIterations
	}
	if cfg.Stable != nil {
		cfg.Stable.setDefaults()
	}
	memLimitRaw, memLimitLog := memLimits(cfg.MemLimitMB)

	// The scorer owns the pool features for the whole run: candidates are
	// re-scored each round through the incremental posterior caches (or
	// direct Predict, see LoopConfig.DirectScoring; or the streamed
	// sharded top-k pool, see LoopConfig.Pool) and rows leave the pool in
	// lockstep with the environment's index bookkeeping.
	var sc scorer
	if cfg.Pool != nil {
		if batch {
			return nil, errors.New("engine: streamed pool and batch selection are mutually exclusive")
		}
		rank, ok := rankerFor(cfg.Policy.Name())
		if !ok {
			return nil, fmt.Errorf("engine: policy %q is not shortlist-safe; the streamed pool supports: %s",
				cfg.Policy.Name(), strings.Join(RankerNames(), ", "))
		}
		sc = newStreamScorer(gpCost, gpMem, features(remaining), cfg.Pool, rank,
			rankerIsMonotone(cfg.Policy.Name()))
	} else {
		sc = newPoolScorer(gpCost, gpMem, features(remaining), cfg.DirectScoring)
	}
	env := &replayEnv{
		ds:          ds,
		tr:          tr,
		remaining:   remaining,
		scorer:      sc,
		gpCost:      gpCost,
		gpMem:       gpMem,
		xTest:       xTest,
		costTest:    costTest,
		memTest:     memTest,
		memLimitLog: memLimitLog,
		batch:       batch,
		stable:      cfg.Stable,
		fid:         fid,
	}
	defer env.scorer.close()

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
	if tr.Reason == StopPoolExhausted && len(env.remaining) > 0 {
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

// nonLogRMSE evaluates the paper's error metric (eq. 10): predictions are
// exponentiated back to the raw response scale and compared with the
// unmodified test measurements.
func nonLogRMSE(g gp.Model, xTest *mat.Dense, actual []float64) float64 {
	mu, _ := g.Predict(xTest)
	pred := make([]float64, len(mu))
	for i, m := range mu {
		pred[i] = math.Pow(10, m)
	}
	return stats.RMSE(pred, actual)
}

func meanAbsDiff(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s / float64(len(a))
}
