package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"alamr/internal/dataset"
	"alamr/internal/stats"
)

// Lab is the experiment-execution seam the injector wraps. It is
// structurally identical to engine.Lab, so a FaultyLab drops into the online
// campaign runtime unchanged.
type Lab interface {
	Run(c dataset.Combo) (dataset.Job, error)
	Candidates() []dataset.Combo
}

// Resumable is an optional Lab capability: labs that carry internal state a
// campaign checkpoint must capture (run counters, per-configuration attempt
// counters) implement it so a killed campaign can restore the lab exactly
// and resume bitwise-identically.
type Resumable interface {
	LabState() ([]byte, error)
	RestoreLabState(state []byte) error
}

// LabConfig configures the fault injector.
type LabConfig struct {
	// Seed drives all fault draws; every (seed, combo, attempt) triple is
	// an independent deterministic stream.
	Seed int64
	// RSSLimitMB enables the OOM killer: any job whose true MaxRSS reaches
	// the limit is killed, its memory observation censored at the limit and
	// a partial cost charged (0 = no OOM enforcement).
	RSSLimitMB float64
	// WallLimitSec enables the wall-clock killer: jobs running longer are
	// killed and charged for the allocation actually consumed (0 = none).
	WallLimitSec float64
	// PTransient is the per-attempt probability of a transient node/launch
	// failure (retryable; a deterministic fraction of the job's cost is
	// lost to the crashed run).
	PTransient float64
	// PCorrupt is the per-attempt probability that a completed job returns
	// a corrupted (NaN/Inf/negative) measurement instead of a clean one.
	PCorrupt float64
}

// Validate rejects injector configurations that would silently misbehave:
// probabilities outside [0, 1] and limits that are NaN, infinite, or
// negative. A probability of exactly 1 is allowed (always-inject is how the
// exhaustion tests drive the retry ladder); values above 1 are almost
// certainly mistyped percentages.
func (c LabConfig) Validate() error {
	checkProb := func(name string, p float64) error {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return fmt.Errorf("faults: %s must be a probability in [0, 1], got %g", name, p)
		}
		return nil
	}
	if err := checkProb("PTransient", c.PTransient); err != nil {
		return err
	}
	if err := checkProb("PCorrupt", c.PCorrupt); err != nil {
		return err
	}
	checkLimit := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("faults: %s must be a finite non-negative limit (0 disables), got %g", name, v)
		}
		return nil
	}
	if err := checkLimit("RSSLimitMB", c.RSSLimitMB); err != nil {
		return err
	}
	return checkLimit("WallLimitSec", c.WallLimitSec)
}

// FaultyLab wraps a Lab and injects classified failures. All injection is
// deterministic: the fault draws of attempt k on configuration c depend only
// on (Seed, c, k).
type FaultyLab struct {
	inner Lab
	cfg   LabConfig

	mu       sync.Mutex
	attempts map[dataset.Combo]int
	counts   map[Class]int
}

// NewFaultyLab wraps inner with the fault injector; the configuration is
// validated up front so a NaN limit or out-of-range probability fails loudly
// instead of silently disabling (or saturating) a fault class.
func NewFaultyLab(inner Lab, cfg LabConfig) (*FaultyLab, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FaultyLab{
		inner:    inner,
		cfg:      cfg,
		attempts: make(map[dataset.Combo]int),
		counts:   make(map[Class]int),
	}, nil
}

// MustFaultyLab is NewFaultyLab for configurations known valid at compile
// time (tests, examples); it panics on a validation error.
func MustFaultyLab(inner Lab, cfg LabConfig) *FaultyLab {
	l, err := NewFaultyLab(inner, cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// Candidates implements Lab.
func (l *FaultyLab) Candidates() []dataset.Combo { return l.inner.Candidates() }

// InjectedByClass reports how many faults of each class the lab has injected
// (introspection for tests and reports).
func (l *FaultyLab) InjectedByClass() map[Class]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[Class]int, len(l.counts))
	for k, v := range l.counts {
		out[k] = v
	}
	return out
}

func (l *FaultyLab) note(c Class) {
	l.mu.Lock()
	l.counts[c]++
	l.mu.Unlock()
}

// Run implements Lab: it executes the wrapped lab and then applies, in
// order, transient-crash, OOM-kill, timeout-kill, and measurement-corruption
// faults. Corrupted measurements are returned as a seemingly successful Job
// — exactly how a real lab misbehaves — and are caught downstream by
// ValidateJob.
func (l *FaultyLab) Run(c dataset.Combo) (dataset.Job, error) {
	l.mu.Lock()
	l.attempts[c]++
	attempt := l.attempts[c]
	l.mu.Unlock()
	rng := stats.SeededRand(attemptSeed(l.cfg.Seed, c, attempt))
	defer stats.PutRand(rng)

	job, err := l.inner.Run(c)
	if err != nil {
		// The wrapped lab itself failed: not injected, not classified.
		return dataset.Job{}, err
	}

	if l.cfg.PTransient > 0 && rng.Float64() < l.cfg.PTransient {
		// Node died partway through the run: a fraction of the cost is
		// gone, nothing was measured.
		frac := 0.5 * rng.Float64()
		l.note(ClassTransient)
		return dataset.Job{}, &Fault{
			Class:    ClassTransient,
			Severity: Retryable,
			Combo:    c,
			Attempt:  attempt,
			LostNH:   frac * job.CostNH,
			Err:      fmt.Errorf("node failure after %.0f%% of the run", 100*frac),
		}
	}

	if l.cfg.RSSLimitMB > 0 && job.MemMB >= l.cfg.RSSLimitMB {
		// OOM kill: the kill happens when the resident set crosses the
		// limit, some deterministic fraction of the way through the run.
		// The surviving observation is censored: MaxRSS >= limit.
		frac := 0.25 + 0.75*rng.Float64()
		killed := job
		killed.MemMB = l.cfg.RSSLimitMB
		killed.WallSec *= frac
		killed.CostNH *= frac
		l.note(ClassOOM)
		return dataset.Job{}, &Fault{
			Class:    ClassOOM,
			Severity: Censored,
			Combo:    c,
			Attempt:  attempt,
			LostNH:   killed.CostNH,
			Job:      killed,
		}
	}

	if l.cfg.WallLimitSec > 0 && job.WallSec > l.cfg.WallLimitSec {
		// Timeout kill: charged for the allocation consumed; the memory
		// reading dies with the job.
		scale := l.cfg.WallLimitSec / job.WallSec
		killed := job
		killed.WallSec = l.cfg.WallLimitSec
		killed.CostNH *= scale
		killed.MemMB = 0
		l.note(ClassTimeout)
		return dataset.Job{}, &Fault{
			Class:    ClassTimeout,
			Severity: Censored,
			Combo:    c,
			Attempt:  attempt,
			LostNH:   killed.CostNH,
			Job:      killed,
		}
	}

	if l.cfg.PCorrupt > 0 && rng.Float64() < l.cfg.PCorrupt {
		bad := job
		switch rng.Intn(3) {
		case 0:
			bad.CostNH = math.NaN()
		case 1:
			bad.MemMB = math.Inf(1)
		default:
			bad.MemMB = -bad.MemMB
		}
		l.note(ClassCorrupt)
		return bad, nil
	}

	return job, nil
}

// faultyLabState is the JSON schema of the injector's checkpointable state.
type faultyLabState struct {
	Attempts []comboAttempts `json:"attempts"`
	Inner    json.RawMessage `json:"inner,omitempty"`
}

type comboAttempts struct {
	Combo dataset.Combo `json:"combo"`
	N     int           `json:"n"`
}

// LabState implements Resumable: the per-configuration attempt counters
// (which drive the fault streams) plus the wrapped lab's own state, if any.
func (l *FaultyLab) LabState() ([]byte, error) {
	l.mu.Lock()
	st := faultyLabState{Attempts: make([]comboAttempts, 0, len(l.attempts))}
	for c, n := range l.attempts {
		st.Attempts = append(st.Attempts, comboAttempts{Combo: c, N: n})
	}
	l.mu.Unlock()
	sort.Slice(st.Attempts, func(i, j int) bool {
		a, b := st.Attempts[i].Combo, st.Attempts[j].Combo
		switch {
		case a.P != b.P:
			return a.P < b.P
		case a.Mx != b.Mx:
			return a.Mx < b.Mx
		case a.MaxLevel != b.MaxLevel:
			return a.MaxLevel < b.MaxLevel
		case a.R0 != b.R0:
			return a.R0 < b.R0
		default:
			return a.RhoIn < b.RhoIn
		}
	})
	if r, ok := l.inner.(Resumable); ok {
		inner, err := r.LabState()
		if err != nil {
			return nil, fmt.Errorf("faults: inner lab state: %w", err)
		}
		st.Inner = inner
	}
	return json.Marshal(st)
}

// RestoreLabState implements Resumable.
func (l *FaultyLab) RestoreLabState(state []byte) error {
	var st faultyLabState
	if err := json.Unmarshal(state, &st); err != nil {
		return fmt.Errorf("faults: decoding lab state: %w", err)
	}
	l.mu.Lock()
	l.attempts = make(map[dataset.Combo]int, len(st.Attempts))
	for _, a := range st.Attempts {
		l.attempts[a.Combo] = a.N
	}
	l.mu.Unlock()
	if len(st.Inner) > 0 {
		r, ok := l.inner.(Resumable)
		if !ok {
			return fmt.Errorf("faults: checkpoint carries inner lab state but the wrapped lab cannot restore it")
		}
		return r.RestoreLabState(st.Inner)
	}
	return nil
}
