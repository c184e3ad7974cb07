// Package online implements the "online" counterpart of the paper's offline
// AL simulator (§IV): instead of replaying a database of precomputed
// samples, the learner proposes any configuration from the full design grid
// and an engine.Lab actually runs it. The provided SimLab backs experiments
// with the AMR performance emulator and the cluster machine model, so a
// complete online campaign runs in seconds; the Lab interface is the seam
// where a real batch system would plug in.
//
// The campaign runtime is fault tolerant: lab failures are classified
// through the internal/faults taxonomy, retryable faults are retried with
// exponential backoff, OOM kills become censored memory observations (the
// model learns MaxRSS >= limit while the wasted cost still accrues to
// CC/CR, the §V-C "learns from its own failures" mechanism), and only fatal
// errors or an exhausted retry budget stop a campaign — returning the
// partial Result rather than discarding it. With Config.CheckpointPath set,
// the loop state is atomically checkpointed after every experiment and a
// killed campaign resumes bitwise-identically.
package online

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"

	"alamr/internal/amr"
	"alamr/internal/cluster"
	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/faults"
	"alamr/internal/gp"
	"alamr/internal/kernel"
	"alamr/internal/mat"
	"alamr/internal/obs"
	"alamr/internal/stats"
)

// SimLab is an engine.Lab backed by the AMR emulator + machine model.
// Reference solutions are fetched lazily (one per physical parameter pair)
// from a cache every SimLab in the process shares, so only the physics the
// learner actually explores is simulated, and only once per process.
type SimLab struct {
	machine  cluster.Machine
	refNx    int
	refTEnd  float64
	refSnaps int
	rootsX   int
	rootsY   int
	subcycle bool
	seed     int64

	mu sync.Mutex
	// refs records the references this lab used, by physics pair.
	refs map[[2]float64]*amr.Reference
	runs int
}

// SimLabConfig configures the simulation-backed lab; zero values match the
// dataset generator's defaults.
type SimLabConfig struct {
	Machine  cluster.Machine
	RefNx    int
	RefTEnd  float64
	RefSnaps int
	RootsX   int
	RootsY   int
	Subcycle bool
	Seed     int64
}

// NewSimLab creates a simulation-backed lab.
func NewSimLab(cfg SimLabConfig) *SimLab {
	if cfg.Machine.CoresPerNode == 0 {
		cfg.Machine = cluster.Edison()
	}
	if cfg.RefNx <= 0 {
		cfg.RefNx = 64
	}
	if cfg.RefTEnd <= 0 {
		cfg.RefTEnd = 0.15
	}
	if cfg.RefSnaps <= 0 {
		cfg.RefSnaps = 6
	}
	if cfg.RootsX <= 0 {
		cfg.RootsX = 8
	}
	if cfg.RootsY <= 0 {
		cfg.RootsY = 4
	}
	return &SimLab{
		machine:  cfg.Machine,
		refNx:    cfg.RefNx,
		refTEnd:  cfg.RefTEnd,
		refSnaps: cfg.RefSnaps,
		rootsX:   cfg.RootsX,
		rootsY:   cfg.RootsY,
		subcycle: cfg.Subcycle,
		seed:     cfg.Seed,
		refs:     make(map[[2]float64]*amr.Reference),
	}
}

// Candidates implements engine.Lab: the paper's full 1920-combination grid.
func (l *SimLab) Candidates() []dataset.Combo { return dataset.AllCombos() }

// NumReferenceRuns reports how many distinct physics references this lab
// used, computed or shared — the expensive part of the lab, worth watching
// in experiments.
func (l *SimLab) NumReferenceRuns() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.refs)
}

// Run implements engine.Lab: each call advances the lab's run counter,
// which seeds that run's measurement noise.
func (l *SimLab) Run(c dataset.Combo) (dataset.Job, error) {
	l.mu.Lock()
	l.runs++
	run := l.runs
	l.mu.Unlock()
	return l.RunSeeded(c, stats.SplitSeed(l.seed, run))
}

// RunSeeded executes the configuration with an explicitly-seeded noise
// stream instead of drawing from the lab's own run counter. The result is a
// pure function of (c, noiseSeed), which is what lets a remote dispatcher
// assign run indices centrally and re-execute a lost job on any worker with
// an identical outcome.
func (l *SimLab) RunSeeded(c dataset.Combo, noiseSeed int64) (dataset.Job, error) {
	ref, err := l.reference(c.R0, c.RhoIn)
	if err != nil {
		return dataset.Job{}, err
	}
	st, err := amr.Emulate(ref, amr.EmulateConfig{
		Mx: c.Mx, MaxLevel: c.MaxLevel,
		RootsX: l.rootsX, RootsY: l.rootsY,
		Subcycle: l.subcycle,
	})
	if err != nil {
		return dataset.Job{}, err
	}
	noise := rand.New(rand.NewSource(noiseSeed))
	acc, err := l.machine.Simulate(cluster.JobSpec{Nodes: c.P, Mx: c.Mx, Stats: st}, noise)
	if err != nil {
		return dataset.Job{}, err
	}
	return dataset.Job{
		P: c.P, Mx: c.Mx, MaxLevel: c.MaxLevel, R0: c.R0, RhoIn: c.RhoIn,
		WallSec: acc.WallClockSec,
		CostNH:  acc.CostNodeHours,
		MemMB:   acc.MaxRSSBytes / (1 << 20),
	}, nil
}

// simLabState is the JSON schema of the lab's checkpointable state: the run
// counter that seeds per-run measurement noise. References are pure
// deterministic computation and are fetched again lazily after a restore.
type simLabState struct {
	Runs int `json:"runs"`
}

// LabState implements faults.Resumable so campaign checkpoints can restore
// the lab's noise stream position exactly.
func (l *SimLab) LabState() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return json.Marshal(simLabState{Runs: l.runs})
}

// RestoreLabState implements faults.Resumable.
func (l *SimLab) RestoreLabState(state []byte) error {
	var st simLabState
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("online: decoding SimLab state: %w", err)
	}
	l.mu.Lock()
	l.runs = st.Runs
	l.mu.Unlock()
	return nil
}

func (l *SimLab) reference(r0, rhoin float64) (*amr.Reference, error) {
	key := [2]float64{r0, rhoin}
	l.mu.Lock()
	ref, ok := l.refs[key]
	l.mu.Unlock()
	if ok {
		return ref, nil
	}
	ref, err := sharedRefs.get(amr.ShockBubble{R0: r0, RhoIn: rhoin}, l.refNx, l.refTEnd, l.refSnaps)
	if err != nil {
		return nil, fmt.Errorf("online: reference (r0=%g, rhoin=%g): %w", r0, rhoin, err)
	}
	l.mu.Lock()
	l.refs[key] = ref
	l.mu.Unlock()
	return ref, nil
}

// Config drives an online AL campaign.
type Config struct {
	Policy engine.Policy
	// InitDesign is the experimenter-chosen warm-up set (the paper's
	// "experimenters' intuition rather than AL" phase). Empty uses one
	// median-ish configuration, mirroring the n_init=1 scenario.
	InitDesign []dataset.Combo
	// Budget stops the campaign once cumulative cost exceeds it
	// (node-hours; 0 = unlimited).
	Budget float64
	// MaxExperiments bounds the number of AL-selected runs (default 50).
	MaxExperiments int
	// MemLimitMB, Kernel, GP, Seed as in engine.LoopConfig.
	MemLimitMB float64
	Kernel     kernel.Kernel
	GP         gp.Config
	Seed       int64
	// Model selects the surrogate family from the engine registry
	// ("exact", "sparse", "treed", "multifid"); nil means the exact GP —
	// or the co-kriging multifid model when Fidelity is set. The model name
	// is recorded in checkpoints, so a resume under a different surrogate
	// family is rejected instead of silently diverging.
	Model *engine.ModelSpec
	// Fidelity turns the campaign multi-fidelity: the lab's candidate grid
	// is restricted to the ladder's MaxLevel rungs, the surrogates become
	// co-kriging models over the ladder, the default init design seeds every
	// rung, and policies see a per-candidate FidelityView (which the
	// costperinfo acquisition requires). The ladder is stamped into
	// checkpoints and validated on resume, like the model name.
	Fidelity *engine.FidelitySpec

	// Retry paces repeated attempts on failed jobs; the zero value means
	// up to 3 attempts with 1s-base exponential backoff and deterministic
	// jitter (see faults.RetryPolicy).
	Retry faults.RetryPolicy
	// CheckpointPath, when non-empty, enables campaign checkpoint/resume:
	// the loop state is atomically serialized there (temp file + rename)
	// and a fresh Run against an existing checkpoint resumes mid-campaign,
	// reproducing the uninterrupted trajectory bit for bit.
	CheckpointPath string
	// CheckpointEvery writes the checkpoint every k-th experiment
	// (default 1: after every experiment).
	CheckpointEvery int
	// Campaign optionally records this run into per-campaign labeled obs
	// series (set by the sweep runner; nil outside sweeps).
	Campaign *engine.CampaignObs
	// Stop optionally requests cooperative cancellation: polled at every
	// round boundary, a true return ends the campaign with StopCancelled.
	// The last completed experiment is checkpointed as usual, so a cancelled
	// campaign's state stays consistent on disk.
	Stop func() bool
}

func (c *Config) setDefaults() {
	if c.MaxExperiments <= 0 {
		c.MaxExperiments = 50
	}
	if c.Kernel == nil {
		c.Kernel = kernel.NewRBF(0.5, 1)
	}
	if c.GP.Noise == 0 {
		c.GP.Noise = 0.1
	}
	c.GP.NormalizeY = true
	if len(c.InitDesign) == 0 {
		base := dataset.Combo{P: 8, Mx: 16, MaxLevel: 4, R0: 0.3, RhoIn: 0.1}
		if c.Fidelity != nil {
			// Seed every rung so each δ-GP of the co-kriging ladder starts
			// fitted (MultiFid needs at least the base level populated).
			for _, l := range c.Fidelity.Levels {
				b := base
				b.MaxLevel = l
				c.InitDesign = append(c.InitDesign, b)
			}
		} else {
			c.InitDesign = []dataset.Combo{base}
		}
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
}

// hyperoptEvery is the online loop's full-refit cadence: every k-th
// selection re-optimizes hyperparameters; the others use the O(n²)
// incremental update.
const hyperoptEvery = 10

// Result records an online campaign.
type Result struct {
	Jobs []dataset.Job // all executed jobs, init design first

	// Per-AL-selection records (indices align with Jobs[len(InitDesign):]).
	PredictedCost []float64 // one-step-ahead cost prediction (node-hours)
	ActualCost    []float64
	PredictedMem  []float64 // one-step-ahead memory prediction (MB)
	ActualMem     []float64
	CumCost       []float64
	CumRegret     []float64
	Violation     []bool
	// Censored marks selections that were killed (OOM/timeout): their
	// ActualCost is the cost wasted up to the kill, and for OOM kills
	// ActualMem is the RSS limit — a lower bound, not a measurement.
	Censored []bool
	// SelectedLevel records each AL selection's fidelity ladder index
	// (multi-fidelity campaigns only; absent otherwise, keeping
	// single-fidelity checkpoints byte-identical).
	SelectedLevel []int `json:"SelectedLevel,omitempty"`

	// Health is the campaign's fault ledger: every lab attempt is accounted
	// as a success, a retried failure, a censored kill, or a fatal stop.
	Health Health

	Reason engine.StopReason
}

// Health aggregates the fault-tolerance bookkeeping of a campaign.
type Health struct {
	// Attempts counts every lab execution. The ledger always balances:
	// Attempts = Successes + Retries + Censored + Fatal.
	Attempts  int `json:"attempts"`
	Successes int `json:"successes"`
	Retries   int `json:"retries"`
	Censored  int `json:"censored"`
	Fatal     int `json:"fatal"`
	// FaultsByClass counts failed attempts per fault class;
	// LostNHByClass attributes the wasted node-hours to each class.
	FaultsByClass map[string]int     `json:"faults_by_class,omitempty"`
	LostNHByClass map[string]float64 `json:"lost_nh_by_class,omitempty"`
	// LostNH is the total node-hours charged to failed attempts.
	LostNH float64 `json:"lost_nh"`
	// BackoffSec is the total (virtual or real) retry backoff delay.
	BackoffSec float64 `json:"backoff_sec,omitempty"`
}

// absorb folds one retry-layer outcome into the ledger.
func (h *Health) absorb(o faults.Outcome) {
	h.Attempts += o.Attempts
	h.Retries += o.Retries
	switch {
	case o.OK:
		h.Successes++
	case o.Fault != nil && o.Fault.Severity == faults.Censored:
		h.Censored++
	default:
		h.Fatal++
	}
	h.LostNH += o.LostNH
	h.BackoffSec += o.BackoffSec
	if len(o.ByClass) > 0 && h.FaultsByClass == nil {
		h.FaultsByClass = make(map[string]int)
	}
	for cl, n := range o.ByClass {
		h.FaultsByClass[string(cl)] += n
	}
	if len(o.LostNHByClass) > 0 && h.LostNHByClass == nil {
		h.LostNHByClass = make(map[string]float64)
	}
	for cl, nh := range o.LostNHByClass {
		h.LostNHByClass[string(cl)] += nh
	}
}

// Consistent verifies the attempt ledger balances: every attempt is exactly
// one of success, retried failure, censored kill, or fatal stop.
func (h *Health) Consistent() bool {
	return h.Attempts == h.Successes+h.Retries+h.Censored+h.Fatal
}

// OneStepMAPE returns the mean absolute percentage error of the
// one-step-ahead cost predictions — the natural online accuracy metric when
// no held-out test set exists. Censored selections enter with the partial
// cost observed up to the kill.
func (r *Result) OneStepMAPE() float64 {
	if len(r.PredictedCost) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range r.PredictedCost {
		s += math.Abs(r.PredictedCost[i]-r.ActualCost[i]) / r.ActualCost[i]
	}
	return s / float64(len(r.PredictedCost))
}

// campaign is the mutable state of one online run. Everything needed to
// resume bitwise-identically is either here or derivable from the feed log:
// the GPs are rebuilt by replaying feeds, the candidate pool by filtering
// the grid against executed configurations, and the policy RNG by skipping
// the recorded number of draws.
type campaign struct {
	lab engine.Lab
	cfg Config
	res *Result

	gpCost, gpMem gp.Model
	src           *stats.CountingSource
	rng           *rand.Rand
	feeds         []feedRec
	initLen       int

	// pool is the candidate grid as of the campaign's (re)start, indexed
	// by the scorer's stable ids; the scorer tracks which remain. It
	// scores through the incremental posterior caches (engine.PoolScorer),
	// so each selection re-scores the pool in O(m·n) — or O(m·k) sparse,
	// O(m·leaf) treed — instead of re-solving per candidate. Exact and
	// treed caches built after a checkpoint resume rebuild through the
	// flat solve path and therefore agree bitwise with caches maintained
	// across an uninterrupted run; the sparse cache resynchronizes exactly
	// at every refit cadence (see gp.SparseScoringCache).
	pool   []dataset.Combo
	scorer *engine.PoolScorer

	memLimitLog, memLimitRaw float64
	cumCost, cumRegret       float64
}

// feedRec is one entry of the model feed log: which scaled-feature row was
// absorbed by which surrogate (a censored OOM kill feeds only the memory
// model, with the clamped lower bound), and whether a hyperparameter refit
// followed. Replaying the log reproduces the GP state exactly.
type feedRec struct {
	X       []float64 `json:"x"`
	LogCost *float64  `json:"log_cost,omitempty"`
	LogMem  *float64  `json:"log_mem,omitempty"`
	Refit   bool      `json:"refit,omitempty"`
	Init    bool      `json:"init,omitempty"`
}

func newCampaign(lab engine.Lab, cfg Config) *campaign {
	c := &campaign{
		lab: lab,
		cfg: cfg,
		res: &Result{Reason: engine.StopMaxIterations},
		src: stats.NewCountingSource(stats.SplitSeed(cfg.Seed, 0)),
	}
	c.rng = rand.New(c.src)
	c.memLimitLog = math.Inf(1)
	c.memLimitRaw = math.Inf(1)
	if cfg.MemLimitMB > 0 {
		c.memLimitLog = math.Log10(cfg.MemLimitMB)
		c.memLimitRaw = cfg.MemLimitMB
	}
	return c
}

// runJob executes one configuration through the retry layer and folds the
// outcome into the campaign health ledger.
func (c *campaign) runJob(combo dataset.Combo) faults.Outcome {
	p := c.cfg.Retry
	if p.Seed == 0 {
		p.Seed = c.cfg.Seed
	}
	out := faults.RunWithRetry(c.lab, combo, p)
	c.res.Health.absorb(out)
	return out
}

// fatalError wraps a terminal outcome into the campaign-stopping error.
func fatalError(combo dataset.Combo, out faults.Outcome) error {
	if out.Exhausted {
		return fmt.Errorf("online: retry budget exhausted on %+v after %d attempts: %w",
			combo, out.Attempts, out.Fault)
	}
	return fmt.Errorf("online: running %+v: %w", combo, out.Fault)
}

// init runs the warm-up design and fits the initial surrogates. Jobs that
// completed before a failure are preserved: on a fatal fault the partial
// Result is returned to the caller alongside the error.
func (c *campaign) init() error {
	for _, combo := range c.cfg.InitDesign {
		out := c.runJob(combo)
		switch {
		case out.OK:
			job := out.Job
			c.res.Jobs = append(c.res.Jobs, job)
			f := dataset.ScaleFeatures(job)
			lc, lm := math.Log10(job.CostNH), math.Log10(job.MemMB)
			c.feeds = append(c.feeds, feedRec{X: append([]float64(nil), f[:]...), LogCost: &lc, LogMem: &lm, Init: true})
		case out.Fault != nil && out.Fault.Severity == faults.Censored && !out.Exhausted:
			// A killed warm-up job still teaches what it can: an OOM kill
			// contributes the censored memory bound; a timeout contributes
			// nothing but its wasted cost stays on the ledger.
			job := out.Fault.Job
			c.res.Jobs = append(c.res.Jobs, job)
			if out.Fault.Class == faults.ClassOOM && job.MemMB > 0 {
				f := dataset.ScaleFeatures(job)
				lm := math.Log10(job.MemMB)
				c.feeds = append(c.feeds, feedRec{X: append([]float64(nil), f[:]...), LogMem: &lm, Init: true})
			}
		default:
			c.res.Reason = engine.StopFault
			return fatalError(combo, out)
		}
	}
	c.initLen = len(c.feeds)

	spFit := obs.SpanFit.Start()
	var err error
	c.gpCost, c.gpMem, err = fitFromFeeds(c.cfg, c.feeds[:c.initLen])
	spFit.End()
	if err != nil {
		c.res.Reason = engine.StopFault
		return err
	}
	c.buildScorer()
	return c.saveCheckpoint(false)
}

// fitFromFeeds builds and fits both surrogates from init-phase feed
// records. The cost and memory training sets may differ: censored warm-up
// jobs contribute only their memory bound. The surrogate family comes from
// cfg.Model via the engine registry; nil keeps the exact GP, so existing
// campaigns (and their checkpoints) are untouched.
func fitFromFeeds(cfg Config, init []feedRec) (gp.Model, gp.Model, error) {
	var xc, xm [][]float64
	var yc, ym []float64
	for _, f := range init {
		if f.LogCost != nil {
			xc = append(xc, f.X)
			yc = append(yc, *f.LogCost)
		}
		if f.LogMem != nil {
			xm = append(xm, f.X)
			ym = append(ym, *f.LogMem)
		}
	}
	if len(yc) == 0 || len(ym) == 0 {
		return nil, nil, errors.New("online: init design yielded no usable observations (all warm-up jobs failed)")
	}
	deps := engine.ModelDeps{Kernel: cfg.Kernel, GP: cfg.GP, Fidelity: cfg.Fidelity}
	gpCost, err := engine.NewSurrogate(cfg.Model, deps)
	if err != nil {
		return nil, nil, err
	}
	gpMem, err := engine.NewSurrogate(cfg.Model, deps)
	if err != nil {
		return nil, nil, err
	}
	err = engine.FitPair(func() error {
		return gpCost.Fit(rowsToDense(xc), yc)
	}, func() error {
		return gpMem.Fit(rowsToDense(xm), ym)
	})
	if err != nil {
		return nil, nil, err
	}
	gpCost.SetRestarts(0)
	gpMem.SetRestarts(0)
	return gpCost, gpMem, nil
}

// buildScorer derives the candidate pool — the design grid minus every
// configuration that has already executed (including censored kills), and,
// in a fidelity campaign, minus every configuration whose MaxLevel is off
// the ladder — and attaches the scorer to the fitted surrogates. Called
// once both GPs exist: after init and after a checkpoint resume. Filtering
// preserves grid order, so a resumed pool is identical to one maintained
// incrementally. A censored OOM feed appends only to the memory GP; since
// each cache tracks exactly its own GP, the cost cache simply stays valid
// through it.
func (c *campaign) buildScorer() {
	ran := make(map[dataset.Combo]bool, len(c.res.Jobs))
	for _, j := range c.res.Jobs {
		ran[j.Config()] = true
	}
	c.pool = c.pool[:0]
	for _, combo := range c.lab.Candidates() {
		if ran[combo] {
			continue
		}
		if c.cfg.Fidelity != nil && c.cfg.Fidelity.LevelOf(combo.MaxLevel) < 0 {
			continue
		}
		c.pool = append(c.pool, combo)
	}
	var x *mat.Dense
	if len(c.pool) > 0 {
		x = mat.NewDense(len(c.pool), dataset.NumFeatures, nil)
		for i, combo := range c.pool {
			f := dataset.ScaleFeatures(dataset.Job{P: combo.P, Mx: combo.Mx, MaxLevel: combo.MaxLevel, R0: combo.R0, RhoIn: combo.RhoIn})
			copy(x.Row(i), f[:])
		}
	}
	c.scorer = engine.NewPoolScorer(c.gpCost, c.gpMem, x)
}

// applyFeed absorbs one selection's feed record into the live surrogates.
func (c *campaign) applyFeed(f feedRec) error {
	if f.LogCost != nil {
		if err := c.gpCost.Append(f.X, *f.LogCost); err != nil {
			return fmt.Errorf("online: cost update: %w", err)
		}
	}
	if f.LogMem != nil {
		if err := c.gpMem.Append(f.X, *f.LogMem); err != nil {
			return fmt.Errorf("online: memory update: %w", err)
		}
	}
	if !f.Refit {
		return nil
	}
	return engine.FitPair(func() error {
		if err := c.gpCost.Refit(); err != nil {
			return fmt.Errorf("online: cost refit: %w", err)
		}
		return nil
	}, func() error {
		if err := c.gpMem.Refit(); err != nil {
			return fmt.Errorf("online: memory refit: %w", err)
		}
		return nil
	})
}

// The campaign implements engine.LoopEnv: the unified loop in
// internal/engine drives Algorithm 1 while these methods serve the live lab
// side — scoring through the engine's pool scorer, executing proposals
// through the retry layer, and absorbing results as feed records so
// checkpoints can replay them.

// PoolLen implements engine.LoopEnv.
func (c *campaign) PoolLen() int { return c.scorer.Len() }

// Score implements engine.LoopEnv: model predictions for the remaining
// pool, straight from the incremental scoring caches.
func (c *campaign) Score() *engine.Candidates {
	cands := c.scorer.Candidates(c.memLimitLog)
	if f := c.cfg.Fidelity; f != nil {
		lv := make([]int, cands.Len())
		for i := range lv {
			lv[i] = f.LevelOf(c.pool[c.scorer.ID(i)].MaxLevel)
		}
		cands.Fid = &engine.FidelityView{Level: lv, TopGain: c.scorer.FidelityGains()}
	}
	return cands
}

// Execute implements engine.LoopEnv: run the proposal through the retry
// layer and classify the outcome. A censored kill (OOM/timeout) is a valid
// partial observation; for OOM kills the kill itself is the limit violation
// (§V-C) — the wasted cost accrues to CC and CR. Anything else is fatal.
func (c *campaign) Execute(pick int) (engine.Execution, error) {
	combo := c.pool[c.scorer.ID(pick)]
	level := 0
	if c.cfg.Fidelity != nil {
		level = c.cfg.Fidelity.LevelOf(combo.MaxLevel)
	}
	out := c.runJob(combo)
	switch {
	case out.OK:
		return engine.Execution{Job: out.Job, Level: level}, nil
	case out.Fault != nil && out.Fault.Severity == faults.Censored && !out.Exhausted:
		return engine.Execution{
			Job:      out.Fault.Job,
			Level:    level,
			Censored: true,
			Violated: out.Fault.Class == faults.ClassOOM,
		}, nil
	default:
		return engine.Execution{}, fatalError(combo, out)
	}
}

// Record implements engine.LoopEnv: append the executed pick to the Result
// and mirror the running totals for checkpoints.
func (c *campaign) Record(pick int, cands *engine.Candidates, e engine.Execution, violated bool, cumCost, cumRegret float64) {
	res := c.res
	res.Jobs = append(res.Jobs, e.Job)
	res.PredictedCost = append(res.PredictedCost, math.Pow(10, cands.MuCost[pick]))
	res.ActualCost = append(res.ActualCost, e.Job.CostNH)
	res.PredictedMem = append(res.PredictedMem, math.Pow(10, cands.MuMem[pick]))
	res.ActualMem = append(res.ActualMem, e.Job.MemMB)
	res.CumCost = append(res.CumCost, cumCost)
	res.CumRegret = append(res.CumRegret, cumRegret)
	res.Violation = append(res.Violation, violated)
	res.Censored = append(res.Censored, e.Censored)
	if c.cfg.Fidelity != nil {
		res.SelectedLevel = append(res.SelectedLevel, e.Level)
		obs.FidelitySelections.Inc(strconv.Itoa(e.Level))
	}
	c.cumCost, c.cumRegret = cumCost, cumRegret
}

// Absorb implements engine.LoopEnv: turn the execution into a feed record,
// apply it to the live surrogates, and log it for checkpoint replay. A
// successful run feeds both models; an OOM kill feeds only the clamped
// memory observation y >= log10(L_mem) — the model learns avoidance from
// its own failure; other censored kills contribute nothing but still tick
// the refit cadence.
func (c *campaign) Absorb(pick int, e engine.Execution, refit bool) error {
	feed := feedRec{Refit: refit}
	switch {
	case !e.Censored:
		f := dataset.ScaleFeatures(e.Job)
		feed.X = append([]float64(nil), f[:]...)
		lc, lm := math.Log10(e.Job.CostNH), math.Log10(e.Job.MemMB)
		feed.LogCost, feed.LogMem = &lc, &lm
	case e.Violated && e.Job.MemMB > 0:
		f := dataset.ScaleFeatures(e.Job)
		feed.X = append([]float64(nil), f[:]...)
		lm := math.Log10(e.Job.MemMB)
		feed.LogMem = &lm
	}
	if err := c.applyFeed(feed); err != nil {
		return err
	}
	c.feeds = append(c.feeds, feed)
	return nil
}

// Remove implements engine.LoopEnv: drop the picks from the scorer. Each
// pick is resolved to its stable id before the first removal reorders the
// candidates.
func (c *campaign) Remove(picks []int) {
	ids := make([]int, len(picks))
	for i, pick := range picks {
		ids[i] = c.scorer.ID(pick)
	}
	for _, id := range ids {
		c.scorer.Remove(id)
	}
}

// Refit implements engine.LoopEnv (q>1 round cadence — unused online, where
// refits ride the per-selection feed records so resume replays them).
func (c *campaign) Refit() error { return nil }

// RoundEnd implements engine.LoopEnv: budget stop, then the periodic
// checkpoint. A checkpoint error aborts with the reason unchanged.
func (c *campaign) RoundEnd(selDone, picked int) (engine.StopReason, bool, error) {
	if c.cfg.Budget > 0 && c.cumCost >= c.cfg.Budget {
		return engine.StopBudget, true, nil
	}
	if selDone%c.cfg.CheckpointEvery == 0 {
		if err := c.saveCheckpoint(false); err != nil {
			return "", false, err
		}
	}
	return "", false, nil
}

// loop runs AL selections until a stop condition fires, delegating
// Algorithm 1 to the unified engine loop. It degrades gracefully: censored
// kills are absorbed as partial observations and only fatal faults abort —
// returning the partial Result with the error. The scorer is closed when
// the loop ends.
func (c *campaign) loop() (*Result, error) {
	defer c.scorer.Close()
	res := c.res
	reason, err := engine.RunLoop(c, engine.LoopParams{
		Policy:        c.cfg.Policy,
		RNG:           c.rng,
		StartSel:      len(res.PredictedCost),
		MaxSel:        c.cfg.MaxExperiments,
		HyperoptEvery: hyperoptEvery,
		MemLimitRaw:   c.memLimitRaw,
		MemLimitMB:    c.cfg.MemLimitMB,
		CumCost:       c.cumCost,
		CumRegret:     c.cumRegret,
		Campaign:      c.cfg.Campaign,
		Stop:          c.cfg.Stop,
	})
	if reason != "" {
		res.Reason = reason
	}
	if err != nil {
		return res, err
	}
	if c.scorer.Len() == 0 && res.Reason == engine.StopMaxIterations {
		res.Reason = engine.StopPoolExhausted
	}
	// A cancelled campaign is checkpointed as still-in-flight: a later Run
	// against the same checkpoint resumes it instead of replaying the
	// cancelled partial result as final.
	if err := c.saveCheckpoint(res.Reason != engine.StopCancelled); err != nil {
		return res, err
	}
	return res, nil
}

// Run executes an online AL campaign against the lab. On fatal faults the
// partial Result accumulated so far is returned alongside the error; with
// Config.CheckpointPath set, an existing checkpoint is resumed instead of
// starting over.
func Run(lab engine.Lab, cfg Config) (*Result, error) {
	cfg.setDefaults()
	if cfg.Policy == nil {
		return nil, errors.New("online: Config.Policy is required")
	}
	if cfg.Fidelity != nil {
		if err := cfg.Fidelity.Validate(); err != nil {
			return nil, err
		}
		for _, combo := range cfg.InitDesign {
			if cfg.Fidelity.LevelOf(combo.MaxLevel) < 0 {
				return nil, fmt.Errorf("online: init design combo %+v has maxlevel %d off the fidelity ladder %v",
					combo, combo.MaxLevel, cfg.Fidelity.Levels)
			}
		}
		obs.FidelityLevels.Set(float64(len(cfg.Fidelity.Levels)))
	}

	if cfg.CheckpointPath != "" {
		ck, err := readCheckpoint(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if ck != nil {
			if err := validateCheckpoint(cfg, ck); err != nil {
				return nil, err
			}
			if ck.Done {
				return ck.Result, nil
			}
			c, err := resumeCampaign(lab, cfg, ck)
			if err != nil {
				return nil, err
			}
			return c.loop()
		}
	}

	c := newCampaign(lab, cfg)
	if err := c.init(); err != nil {
		return c.res, err
	}
	return c.loop()
}

func rowsToDense(rows [][]float64) *mat.Dense {
	x := mat.NewDense(len(rows), len(rows[0]), nil)
	for i, r := range rows {
		copy(x.Row(i), r)
	}
	return x
}
