package faults

import (
	"math"

	"alamr/internal/dataset"
	"alamr/internal/obs"
	"alamr/internal/stats"
)

// RetryPolicy bounds and paces repeated attempts on one configuration.
type RetryPolicy struct {
	// MaxAttempts is the per-job attempt budget, counting the first try
	// (default 3; 1 disables retries).
	MaxAttempts int
	// BaseBackoffSec and MaxBackoffSec shape the exponential backoff:
	// attempt k waits min(Max, Base·2^(k-1)) seconds scaled by a
	// deterministic jitter factor in [0.5, 1.5).
	BaseBackoffSec float64
	MaxBackoffSec  float64
	// Seed drives the jitter; like fault injection, the jitter of attempt k
	// on configuration c depends only on (Seed, c, k).
	Seed int64
	// Sleep, when non-nil, is called with each backoff delay in seconds. A
	// real batch-system lab passes a wall-clock sleeper; the simulation labs
	// leave it nil and the delay is only accounted, not waited out.
	Sleep func(seconds float64) `json:"-"`
}

func (p *RetryPolicy) setDefaults() {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoffSec <= 0 {
		p.BaseBackoffSec = 1
	}
	if p.MaxBackoffSec <= 0 {
		p.MaxBackoffSec = 60
	}
}

// Backoff returns the deterministic post-failure delay (seconds) before
// retrying configuration c after failed attempt number attempt (1-based).
func (p RetryPolicy) Backoff(c dataset.Combo, attempt int) float64 {
	p.setDefaults()
	d := p.BaseBackoffSec * math.Pow(2, float64(attempt-1))
	if d > p.MaxBackoffSec {
		d = p.MaxBackoffSec
	}
	// Deterministic jitter in [0.5, 1.5): decorrelates fleets of retrying
	// jobs without sacrificing reproducibility.
	jrng := stats.SeededRand(attemptSeed(p.Seed^0x6a09e667f3bcc908, c, attempt))
	d *= 0.5 + jrng.Float64()
	stats.PutRand(jrng)
	return d
}

// Outcome is the bookkeeping of one job executed through the retry layer.
type Outcome struct {
	// Job is the successful measurement when OK.
	Job dataset.Job
	// OK reports a full, uncensored observation.
	OK bool
	// Fault is the terminal classified failure when !OK.
	Fault *Fault
	// Exhausted reports that the attempt budget ran out on retryable
	// failures — a campaign-stopping condition.
	Exhausted bool

	// Attempts counts lab.Run calls; Retries counts the failed attempts
	// that were followed by another try, so
	// Attempts = Retries + 1 terminal attempt.
	Attempts int
	Retries  int
	// LostNH accumulates node-hours charged to failed attempts.
	LostNH float64
	// BackoffSec accumulates the (virtual or real) backoff delay.
	BackoffSec float64
	// ByClass counts the failed attempts by fault class; LostNHByClass
	// attributes the wasted node-hours to each class.
	ByClass       map[Class]int
	LostNHByClass map[Class]float64
}

// RunWithRetry executes one configuration through the lab under the retry
// policy: retryable faults (transient failures, corrupted measurements) are
// retried with exponential backoff and deterministic jitter until the
// attempt budget is spent; censored kills (OOM, timeout) and fatal errors
// terminate immediately — retrying a job that deterministically exceeds its
// limits would only waste more allocation. Every returned measurement is
// validated before being accepted.
func RunWithRetry(lab Lab, c dataset.Combo, p RetryPolicy) Outcome {
	p.setDefaults()
	out := Outcome{ByClass: make(map[Class]int), LostNHByClass: make(map[Class]float64)}
	for {
		out.Attempts++
		obs.FaultAttempts.Inc()
		job, err := lab.Run(c)
		if err == nil {
			err = ValidateJob(job, out.Attempts)
		}
		if err == nil {
			out.Job = job
			out.OK = true
			obs.FaultSuccess.Inc()
			return out
		}

		if f, ok := AsFault(err); ok {
			out.Fault = f
			out.ByClass[f.Class]++
			out.LostNH += f.LostNH
			out.LostNHByClass[f.Class] += f.LostNH
		} else {
			out.Fault = &Fault{
				Class:    ClassUnknown,
				Severity: Fatal,
				Combo:    c,
				Attempt:  out.Attempts,
				Err:      err,
			}
			out.ByClass[ClassUnknown]++
		}
		obs.FaultByClass.Inc(string(out.Fault.Class))

		// Terminal classification mirrors online.Health.absorb: a censored
		// kill counts as censored, every other terminal failure (fatal or an
		// exhausted retry budget) counts as fatal — so the obs counters
		// reconcile with the campaign health ledger by construction.
		if out.Fault.Severity != Retryable {
			if out.Fault.Severity == Censored {
				obs.FaultCensored.Inc()
			} else {
				obs.FaultFatal.Inc()
			}
			return out
		}
		if out.Attempts >= p.MaxAttempts {
			out.Exhausted = true
			obs.FaultFatal.Inc()
			return out
		}
		out.Retries++
		obs.FaultRetries.Inc()
		delay := p.Backoff(c, out.Attempts)
		out.BackoffSec += delay
		obs.FaultBackoff.Observe(delay)
		if p.Sleep != nil {
			p.Sleep(delay)
		}
	}
}
