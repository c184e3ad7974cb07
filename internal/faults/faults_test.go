package faults

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"alamr/internal/dataset"
)

// analyticLab is a deterministic fault-free lab for tests: responses depend
// only on the configuration.
type analyticLab struct {
	runs   int
	combos []dataset.Combo
}

func newAnalyticLab() *analyticLab { return &analyticLab{combos: dataset.AllCombos()} }

func (l *analyticLab) Candidates() []dataset.Combo { return l.combos }

func (l *analyticLab) Run(c dataset.Combo) (dataset.Job, error) {
	l.runs++
	wall := 2.0 * math.Pow(float64(c.Mx)/8, 1.5) * math.Pow(2, float64(c.MaxLevel-3)) *
		(1 + c.R0) / (0.3 + c.RhoIn)
	return dataset.Job{
		P: c.P, Mx: c.Mx, MaxLevel: c.MaxLevel, R0: c.R0, RhoIn: c.RhoIn,
		WallSec: wall,
		CostNH:  wall * float64(c.P) / 3600,
		MemMB:   0.05 * float64(c.Mx*c.Mx) / 64 * math.Pow(2, float64(c.MaxLevel-3)) / math.Sqrt(float64(c.P)),
	}, nil
}

func TestClassifySeverities(t *testing.T) {
	if s := Classify(errors.New("boom")); s != Fatal {
		t.Fatalf("unknown error classified %v", s)
	}
	f := &Fault{Class: ClassTransient, Severity: Retryable}
	if s := Classify(fmt.Errorf("wrapped: %w", f)); s != Retryable {
		t.Fatalf("wrapped fault classified %v", s)
	}
	if got, ok := AsFault(fmt.Errorf("x: %w", f)); !ok || got != f {
		t.Fatal("AsFault failed through wrapping")
	}
}

func TestValidateJobClassifiesCorruption(t *testing.T) {
	good := dataset.Job{WallSec: 1, CostNH: 1, MemMB: 1}
	if err := ValidateJob(good, 1); err != nil {
		t.Fatalf("good job rejected: %v", err)
	}
	cases := []dataset.Job{
		{WallSec: 1, CostNH: math.NaN(), MemMB: 1},
		{WallSec: 1, CostNH: 1, MemMB: math.Inf(1)},
		{WallSec: 1, CostNH: 1, MemMB: -3},
		{WallSec: 0, CostNH: 1, MemMB: 1},
	}
	for i, j := range cases {
		err := ValidateJob(j, 2)
		if err == nil {
			t.Fatalf("case %d accepted", i)
		}
		f, ok := AsFault(err)
		if !ok || f.Class != ClassCorrupt || f.Severity != Retryable {
			t.Fatalf("case %d misclassified: %v", i, err)
		}
		if !errors.Is(err, dataset.ErrBadResponse) {
			t.Fatalf("case %d does not wrap ErrBadResponse", i)
		}
		if math.IsNaN(f.LostNH) || f.LostNH < 0 {
			t.Fatalf("case %d lost node-hours %g", i, f.LostNH)
		}
	}
}

// TestFaultyLabDeterministicPerAttempt pins the reproducibility contract:
// the outcome of attempt k on configuration c depends only on (seed, c, k),
// not on what ran in between.
func TestFaultyLabDeterministicPerAttempt(t *testing.T) {
	cfg := LabConfig{Seed: 11, PTransient: 0.4, PCorrupt: 0.3, RSSLimitMB: 0.4}
	combos := dataset.AllCombos()[:40]

	// Records are compared as formatted strings: corrupted jobs carry NaN,
	// which never compares equal to itself under reflect.DeepEqual.
	trace := func(order []dataset.Combo) map[string][]string {
		lab := MustFaultyLab(newAnalyticLab(), cfg)
		out := make(map[string][]string)
		for _, c := range order {
			for a := 0; a < 3; a++ {
				j, err := lab.Run(c)
				key := fmt.Sprintf("%+v", c)
				out[key] = append(out[key], fmt.Sprintf("%+v | %v", j, err))
			}
		}
		return out
	}

	fwd := trace(combos)
	rev := make([]dataset.Combo, len(combos))
	for i, c := range combos {
		rev[len(combos)-1-i] = c
	}
	bwd := trace(rev)
	if !reflect.DeepEqual(fwd, bwd) {
		t.Fatal("fault outcomes depend on execution order")
	}
}

func TestFaultyLabOOMCensorsAtLimit(t *testing.T) {
	const limit = 0.4
	lab := MustFaultyLab(newAnalyticLab(), LabConfig{Seed: 3, RSSLimitMB: limit})
	inner := newAnalyticLab()
	oom, clean := 0, 0
	for _, c := range dataset.AllCombos()[:200] {
		truth, _ := inner.Run(c)
		j, err := lab.Run(c)
		if truth.MemMB >= limit {
			f, ok := AsFault(err)
			if !ok || f.Class != ClassOOM || f.Severity != Censored {
				t.Fatalf("over-limit job not OOM-classified: %v", err)
			}
			if f.Job.MemMB != limit {
				t.Fatalf("censored memory %g want %g", f.Job.MemMB, limit)
			}
			if f.Job.CostNH <= 0 || f.Job.CostNH > truth.CostNH {
				t.Fatalf("partial cost %g outside (0, %g]", f.Job.CostNH, truth.CostNH)
			}
			if f.LostNH != f.Job.CostNH {
				t.Fatalf("lost %g != charged %g", f.LostNH, f.Job.CostNH)
			}
			oom++
		} else {
			if err != nil {
				t.Fatalf("under-limit job failed: %v", err)
			}
			if j != truth {
				t.Fatalf("clean job altered: %+v vs %+v", j, truth)
			}
			clean++
		}
	}
	if oom == 0 || clean == 0 {
		t.Fatalf("degenerate split oom=%d clean=%d", oom, clean)
	}
}

func TestFaultyLabTimeoutKills(t *testing.T) {
	lab := MustFaultyLab(newAnalyticLab(), LabConfig{Seed: 5, WallLimitSec: 10})
	inner := newAnalyticLab()
	kills := 0
	for _, c := range dataset.AllCombos()[:100] {
		truth, _ := inner.Run(c)
		_, err := lab.Run(c)
		if truth.WallSec <= 10 {
			if err != nil {
				t.Fatalf("fast job killed: %v", err)
			}
			continue
		}
		f, ok := AsFault(err)
		if !ok || f.Class != ClassTimeout || f.Severity != Censored {
			t.Fatalf("slow job not timeout-classified: %v", err)
		}
		if f.Job.WallSec != 10 {
			t.Fatalf("killed wall %g", f.Job.WallSec)
		}
		want := truth.CostNH * 10 / truth.WallSec
		if math.Abs(f.LostNH-want) > 1e-12 {
			t.Fatalf("charged %g want %g", f.LostNH, want)
		}
		kills++
	}
	if kills == 0 {
		t.Fatal("no timeouts triggered")
	}
}

func TestFaultyLabCorruptReturnsBadMeasurement(t *testing.T) {
	lab := MustFaultyLab(newAnalyticLab(), LabConfig{Seed: 9, PCorrupt: 1})
	j, err := lab.Run(dataset.Combo{P: 8, Mx: 16, MaxLevel: 4, R0: 0.3, RhoIn: 0.1})
	if err != nil {
		t.Fatalf("corrupt job should surface as a bad measurement, got error %v", err)
	}
	if ValidateJob(j, 1) == nil {
		t.Fatalf("corrupted job passed validation: %+v", j)
	}
}

func TestFaultyLabStateRoundTrip(t *testing.T) {
	cfg := LabConfig{Seed: 21, PTransient: 0.5}
	lab := MustFaultyLab(newAnalyticLab(), cfg)
	c := dataset.Combo{P: 8, Mx: 16, MaxLevel: 4, R0: 0.3, RhoIn: 0.1}
	var first []error
	for i := 0; i < 4; i++ {
		_, err := lab.Run(c)
		first = append(first, err)
	}
	st, err := lab.LabState()
	if err != nil {
		t.Fatal(err)
	}
	// Continue the original and a restored copy in lockstep.
	fresh := MustFaultyLab(newAnalyticLab(), cfg)
	if err := fresh.RestoreLabState(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		ja, ea := lab.Run(c)
		jb, eb := fresh.Run(c)
		if ja != jb || fmt.Sprint(ea) != fmt.Sprint(eb) {
			t.Fatalf("restored lab diverged at %d: (%v, %v) vs (%v, %v)", i, ja, ea, jb, eb)
		}
	}
}

func TestRunWithRetryRecoversTransients(t *testing.T) {
	// High transient rate + generous budget: retry until clean.
	lab := MustFaultyLab(newAnalyticLab(), LabConfig{Seed: 2, PTransient: 0.6})
	p := RetryPolicy{MaxAttempts: 20, Seed: 2}
	retried := false
	for _, c := range dataset.AllCombos()[:30] {
		out := RunWithRetry(lab, c, p)
		if !out.OK {
			t.Fatalf("retry failed to recover %+v: %+v", c, out.Fault)
		}
		if out.Attempts != out.Retries+1 {
			t.Fatalf("accounting: attempts %d retries %d", out.Attempts, out.Retries)
		}
		if out.Retries > 0 {
			retried = true
			if out.BackoffSec <= 0 {
				t.Fatal("retries without backoff accounting")
			}
		}
	}
	if !retried {
		t.Fatal("transient rate 0.6 produced no retries")
	}
}

func TestRunWithRetryCensoredIsTerminal(t *testing.T) {
	lab := MustFaultyLab(newAnalyticLab(), LabConfig{Seed: 2, RSSLimitMB: 1e-6})
	out := RunWithRetry(lab, dataset.Combo{P: 4, Mx: 32, MaxLevel: 6, R0: 0.5, RhoIn: 0.02}, RetryPolicy{})
	if out.OK || out.Fault == nil || out.Fault.Class != ClassOOM {
		t.Fatalf("outcome %+v", out)
	}
	if out.Attempts != 1 || out.Retries != 0 {
		t.Fatalf("censored kill was retried: %+v", out)
	}
}

func TestRunWithRetryBudgetExhaustion(t *testing.T) {
	lab := MustFaultyLab(newAnalyticLab(), LabConfig{Seed: 4, PTransient: 1})
	slept := 0
	out := RunWithRetry(lab, dataset.Combo{P: 8, Mx: 8, MaxLevel: 3, R0: 0.2, RhoIn: 0.02}, RetryPolicy{
		MaxAttempts: 4,
		Sleep:       func(float64) { slept++ },
	})
	if out.OK || !out.Exhausted {
		t.Fatalf("outcome %+v", out)
	}
	if out.Attempts != 4 || out.Retries != 3 || slept != 3 {
		t.Fatalf("attempts=%d retries=%d sleeps=%d", out.Attempts, out.Retries, slept)
	}
	if out.ByClass[ClassTransient] != 4 {
		t.Fatalf("by-class %v", out.ByClass)
	}
}

func TestRunWithRetryUnknownErrorIsFatal(t *testing.T) {
	lab := &failingLab{analyticLab: *newAnalyticLab()}
	out := RunWithRetry(lab, dataset.Combo{P: 8, Mx: 8, MaxLevel: 3, R0: 0.2, RhoIn: 0.02}, RetryPolicy{})
	if out.OK || out.Exhausted {
		t.Fatalf("outcome %+v", out)
	}
	if out.Fault.Class != ClassUnknown || out.Fault.Severity != Fatal || out.Attempts != 1 {
		t.Fatalf("fault %+v attempts %d", out.Fault, out.Attempts)
	}
}

type failingLab struct{ analyticLab }

func (l *failingLab) Run(dataset.Combo) (dataset.Job, error) {
	return dataset.Job{}, errors.New("cluster on fire")
}

func TestBackoffGrowsAndIsDeterministic(t *testing.T) {
	p := RetryPolicy{BaseBackoffSec: 1, MaxBackoffSec: 16, Seed: 6}
	c := dataset.Combo{P: 4, Mx: 8, MaxLevel: 3, R0: 0.2, RhoIn: 0.02}
	prevBase := 0.0
	for a := 1; a <= 6; a++ {
		d := p.Backoff(c, a)
		if d != p.Backoff(c, a) {
			t.Fatal("jitter not deterministic")
		}
		base := math.Min(16, math.Pow(2, float64(a-1)))
		if d < 0.5*base || d >= 1.5*base {
			t.Fatalf("attempt %d delay %g outside jitter band of %g", a, d, base)
		}
		if base > prevBase && a > 1 && d <= 0 {
			t.Fatalf("non-positive delay %g", d)
		}
		prevBase = base
	}
}

func TestLabConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     LabConfig
		wantErr string // substring of the error, "" = valid
	}{
		{name: "zero value", cfg: LabConfig{}},
		{name: "typical", cfg: LabConfig{Seed: 1, RSSLimitMB: 4096, WallLimitSec: 600, PTransient: 0.1, PCorrupt: 0.05}},
		{name: "probabilities at zero", cfg: LabConfig{PTransient: 0, PCorrupt: 0}},
		{name: "negative transient probability", cfg: LabConfig{PTransient: -0.1}, wantErr: "PTransient"},
		{name: "negative corrupt probability", cfg: LabConfig{PCorrupt: -1e-9}, wantErr: "PCorrupt"},
		{name: "transient probability of one (always inject)", cfg: LabConfig{PTransient: 1}},
		{name: "corrupt probability above one", cfg: LabConfig{PCorrupt: 40}, wantErr: "PCorrupt"},
		{name: "transient probability above one", cfg: LabConfig{PTransient: 1.5}, wantErr: "PTransient"},
		{name: "NaN transient probability", cfg: LabConfig{PTransient: math.NaN()}, wantErr: "PTransient"},
		{name: "NaN RSS limit", cfg: LabConfig{RSSLimitMB: math.NaN()}, wantErr: "RSSLimitMB"},
		{name: "negative RSS limit", cfg: LabConfig{RSSLimitMB: -1}, wantErr: "RSSLimitMB"},
		{name: "infinite RSS limit", cfg: LabConfig{RSSLimitMB: math.Inf(1)}, wantErr: "RSSLimitMB"},
		{name: "NaN wall limit", cfg: LabConfig{WallLimitSec: math.NaN()}, wantErr: "WallLimitSec"},
		{name: "negative wall limit", cfg: LabConfig{WallLimitSec: -3}, wantErr: "WallLimitSec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				if _, nerr := NewFaultyLab(newAnalyticLab(), tc.cfg); nerr != nil {
					t.Fatalf("NewFaultyLab rejected valid config: %v", nerr)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid config accepted: %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the bad field %q", err, tc.wantErr)
			}
			if _, nerr := NewFaultyLab(newAnalyticLab(), tc.cfg); nerr == nil {
				t.Fatal("NewFaultyLab accepted invalid config")
			}
		})
	}
}

// TestFaultDrawsAllocateNothing: an attempt's fault draws and a retry's
// backoff jitter come from pooled generators, so a fault-free attempt and
// a backoff allocate nothing.
func TestFaultDrawsAllocateNothing(t *testing.T) {
	lab := MustFaultyLab(newAnalyticLab(), LabConfig{
		Seed:       3,
		PTransient: math.SmallestNonzeroFloat64,
		PCorrupt:   math.SmallestNonzeroFloat64,
	})
	c := lab.Candidates()[7]
	if _, err := lab.Run(c); err != nil { // the attempt counter's map entry
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { lab.Run(c) }); allocs != 0 {
		t.Fatalf("FaultyLab.Run allocated %v times per attempt", allocs)
	}
	p := RetryPolicy{Seed: 5}
	if allocs := testing.AllocsPerRun(200, func() { p.Backoff(c, 2) }); allocs != 0 {
		t.Fatalf("Backoff allocated %v times per call", allocs)
	}
}
