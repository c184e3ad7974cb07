package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"alamr/internal/dataset"
	"alamr/internal/obs"
)

// Execution is the outcome of running one selected candidate: the measured
// job plus the censoring/violation verdict the environment already knows.
// The loop applies the raw memory-limit threshold on top for uncensored
// jobs, so replay and online campaigns share one regret accounting.
type Execution struct {
	Job dataset.Job
	// Censored marks a run that was killed before completing (e.g. an OOM
	// kill): its responses are partial and must not feed the cost surrogate.
	Censored bool
	// Violated pre-judges the memory-limit violation for censored runs (an
	// OOM kill is the violation even though MemMB is only a lower bound).
	Violated bool
	// Level is the executed candidate's fidelity ladder index
	// (multi-fidelity campaigns only; always 0 otherwise).
	Level int
}

// LoopEnv is the execution seam of the unified campaign loop: everything
// Algorithm 1 needs from "the world" — scoring the remaining pool, running a
// selected candidate, recording it, feeding the surrogates, and the
// per-round bookkeeping — behind one interface. The replay environment
// serves the offline dataset; the online campaign proposes live jobs.
// Indices handed to Execute/Record/Absorb/Remove refer to positions in the
// most recent Score() result.
type LoopEnv interface {
	// PoolLen reports how many candidates remain.
	PoolLen() int
	// Score produces model predictions for the remaining pool.
	Score() *Candidates
	// Execute runs the pick-th candidate. A returned error is fatal and
	// aborts the loop with StopFault.
	Execute(pick int) (Execution, error)
	// Record appends the executed pick to the environment's result record.
	// It runs before Absorb and before Remove, so pick still addresses the
	// scored pool.
	Record(pick int, cands *Candidates, e Execution, violated bool, cumCost, cumRegret float64)
	// Absorb feeds the measurement into the surrogates; refit requests a
	// hyperparameter re-optimization alongside the update (q=1 cadence).
	Absorb(pick int, e Execution, refit bool) error
	// Remove drops the round's picks from the pool after all of them have
	// been recorded and absorbed.
	Remove(picks []int)
	// Refit re-optimizes both surrogates on the round cadence (q>1 only).
	Refit() error
	// RoundEnd runs the environment's per-round epilogue (RMSE curves,
	// stability checks, budget checks, checkpoints). selDone is the total
	// number of selections so far, picked the size of the round just
	// finished. A non-empty reason with stop=true terminates the loop; an
	// error aborts it, keeping the reason ("" preserves the caller's
	// default).
	RoundEnd(selDone, picked int) (StopReason, bool, error)
}

// LoopParams carries the loop-level knobs shared by both execution modes.
type LoopParams struct {
	Policy Policy
	// RNG is the policy's randomness stream; the loop never draws from it
	// directly, so checkpointed draw counts stay exact.
	RNG *rand.Rand
	// StartSel is the number of selections already recorded (resume offset).
	StartSel int
	// MaxSel bounds the total number of selections.
	MaxSel int
	// HyperoptEvery is the refit cadence in selections (q=1) or is divided
	// by Q for the round cadence (q>1).
	HyperoptEvery int
	// Q is the batch size; 0/1 selects the sequential single-pick path.
	Q int
	// Strategy assembles q-batches from the single-point policy.
	Strategy BatchStrategy
	// MemLimitRaw is the violation threshold in MB (+Inf when unlimited).
	MemLimitRaw float64
	// MemLimitMB is the configured limit (>0 enables the headroom gauge).
	MemLimitMB float64
	// CumCost / CumRegret are running totals carried in from a resume.
	CumCost, CumRegret float64
	// Campaign optionally records into per-campaign labeled series.
	Campaign *CampaignObs
	// Stop, when non-nil, is polled before every round; a true return ends
	// the loop with StopCancelled. Cancellation is cooperative and lands on
	// round boundaries only, so a checkpointed campaign cancelled mid-flight
	// still holds a consistent (resumable) state.
	Stop func() bool
}

// RunLoop drives Algorithm 1 against the environment: score the pool, let
// the policy select, execute, account cost/regret, feed the surrogates, and
// run the environment's round epilogue — until the pool or the selection
// budget is exhausted, a stop condition fires, or a fault aborts the run.
// The returned reason is "" when the loop ran out of pool/budget naturally
// (callers keep their own default), and names the stop condition otherwise.
func RunLoop(env LoopEnv, p LoopParams) (StopReason, error) {
	q := p.Q
	if q < 1 {
		q = 1
	}
	cumCost, cumRegret := p.CumCost, p.CumRegret
	sel := p.StartSel
	round := 0
	for sel < p.MaxSel && env.PoolLen() > 0 {
		if p.Stop != nil && p.Stop() {
			return StopCancelled, nil
		}
		want := q
		if rem := p.MaxSel - sel; rem < want {
			want = rem
		}
		spScore := obs.SpanScore.Start()
		cands := env.Score()
		spScore.End()

		spSelect := obs.SpanSelect.Start()
		var picks []int
		var err error
		if q == 1 {
			// Single-pick fast path: call the policy directly so the RNG draw
			// sequence matches the historical sequential loop exactly.
			var pick int
			pick, err = p.Policy.Select(cands, p.RNG)
			if err == nil {
				picks = []int{pick}
			}
		} else {
			picks, err = SelectBatch(p.Policy, cands, want, p.Strategy, p.RNG)
		}
		spSelect.End()
		if err != nil && !errors.Is(err, ErrAllExceedLimit) {
			return StopFault, fmt.Errorf("engine: policy %s at selection %d: %w", p.Policy.Name(), sel, err)
		}
		// A memory-aware policy that ran out of satisfying candidates partway
		// through a batch still finishes the round with what it picked, then
		// stops.
		partial := errors.Is(err, ErrAllExceedLimit)
		if len(picks) == 0 {
			return StopMemoryLimit, nil
		}

		for _, pick := range picks {
			// Picks index the scored set, which a streamed pool keeps to
			// its winner.
			if pick < 0 || pick >= cands.Len() {
				return StopFault, fmt.Errorf("engine: policy %s returned out-of-range index %d of %d candidates", p.Policy.Name(), pick, cands.Len())
			}
			spRun := obs.SpanRun.Start()
			e, execErr := env.Execute(pick)
			spRun.End()
			if execErr != nil {
				return StopFault, execErr
			}
			job := e.Job
			violated := e.Violated
			if !e.Censored && job.MemMB >= p.MemLimitRaw {
				violated = true
			}
			cumCost += job.CostNH
			if violated {
				cumRegret += job.CostNH
				obs.CampaignViolations.Inc()
			}
			env.Record(pick, cands, e, violated, cumCost, cumRegret)
			obs.CampaignCumCost.Set(cumCost)
			obs.CampaignCumRegret.Set(cumRegret)
			if p.MemLimitMB > 0 {
				obs.CampaignHeadroom.Set(p.MemLimitRaw - job.MemMB)
			}
			obs.JobCost.Observe(job.CostNH)
			obs.JobMem.Observe(job.MemMB)
			p.Campaign.recordSelection(violated, cumCost, cumRegret)

			refit := q == 1 && (sel+1)%p.HyperoptEvery == 0
			// Span handles hold atomic state and must not be copied.
			spHandle := &obs.SpanFeed
			if refit {
				spHandle = &obs.SpanHyperopt
			}
			spFeed := spHandle.Start()
			if err := env.Absorb(pick, e, refit); err != nil {
				return StopFault, err
			}
			spFeed.End()
			sel++
		}

		env.Remove(picks)
		obs.LoopIterations.Add(int64(len(picks)))
		obs.PoolSize.Set(float64(env.PoolLen()))

		round++
		if q > 1 && round%maxInt(p.HyperoptEvery/q, 1) == 0 {
			spHyper := obs.SpanHyperopt.Start()
			if err := env.Refit(); err != nil {
				spHyper.End()
				return StopFault, err
			}
			spHyper.End()
		}

		reason, stop, err := env.RoundEnd(sel, len(picks))
		if err != nil {
			return reason, err
		}
		if stop {
			return reason, nil
		}
		if partial {
			return StopMemoryLimit, nil
		}
	}
	return "", nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// memLimits derives the raw and log-space violation thresholds from a
// configured limit (0 or negative disables both → +Inf).
func memLimits(memLimitMB float64) (raw, log float64) {
	raw, log = math.Inf(1), math.Inf(1)
	if memLimitMB > 0 {
		raw = memLimitMB
		log = math.Log10(memLimitMB)
	}
	return raw, log
}
