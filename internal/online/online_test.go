package online

import (
	"fmt"
	"math"
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/engine"
)

// fakeLab is a deterministic analytic lab for fast tests.
type fakeLab struct {
	runs   int
	combos []dataset.Combo
}

func newFakeLab() *fakeLab {
	return &fakeLab{combos: dataset.AllCombos()}
}

func (l *fakeLab) Candidates() []dataset.Combo { return l.combos }

func (l *fakeLab) Run(c dataset.Combo) (dataset.Job, error) {
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

type errLab struct{ fakeLab }

func (l *errLab) Run(c dataset.Combo) (dataset.Job, error) {
	if l.runs >= 3 {
		return dataset.Job{}, fmt.Errorf("cluster on fire")
	}
	return l.fakeLab.Run(c)
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(newFakeLab(), Config{}); err == nil {
		t.Fatal("nil policy accepted")
	}
}

func TestOnlineCampaignBasics(t *testing.T) {
	lab := newFakeLab()
	res, err := Run(lab, Config{
		Policy:         engine.RandGoodness{},
		MaxExperiments: 15,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 16 { // 1 init + 15 selected
		t.Fatalf("jobs = %d want 16", len(res.Jobs))
	}
	if len(res.PredictedCost) != 15 || len(res.CumCost) != 15 {
		t.Fatalf("record lengths %d/%d", len(res.PredictedCost), len(res.CumCost))
	}
	if lab.runs != 16 {
		t.Fatalf("lab executed %d runs want 16", lab.runs)
	}
	// No duplicate configurations.
	seen := map[dataset.Combo]bool{}
	for _, j := range res.Jobs {
		if seen[j.Config()] {
			t.Fatalf("config %+v ran twice", j.Config())
		}
		seen[j.Config()] = true
	}
	// One-step-ahead MAPE should be a real number.
	if m := res.OneStepMAPE(); math.IsNaN(m) || m < 0 {
		t.Fatalf("MAPE = %g", m)
	}
}

func TestOnlinePredictionsImprove(t *testing.T) {
	lab := newFakeLab()
	res, err := Run(lab, Config{
		Policy:         engine.RandUniform{},
		MaxExperiments: 60,
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Compare MAPE on the first vs last third of online selections: the
	// model should get more accurate as data accumulates.
	third := len(res.PredictedCost) / 3
	mape := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += math.Abs(res.PredictedCost[i]-res.ActualCost[i]) / res.ActualCost[i]
		}
		return s / float64(hi-lo)
	}
	early, late := mape(0, third), mape(2*third, len(res.PredictedCost))
	if late >= early {
		t.Fatalf("one-step error did not improve: early %.3f late %.3f", early, late)
	}
}

func TestOnlineBudgetStops(t *testing.T) {
	lab := newFakeLab()
	res, err := Run(lab, Config{
		Policy:         engine.MaxSigma{}, // seeks expensive/uncertain configs
		MaxExperiments: 1000,
		Budget:         0.5,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != engine.StopReason("budget-exhausted") {
		t.Fatalf("reason = %s", res.Reason)
	}
	n := len(res.CumCost)
	if res.CumCost[n-1] < 0.5 {
		t.Fatalf("stopped below budget: %g", res.CumCost[n-1])
	}
	// Only the final selection may exceed the budget.
	if n >= 2 && res.CumCost[n-2] >= 0.5 {
		t.Fatalf("kept selecting past budget: %v", res.CumCost[n-2:])
	}
}

func TestOnlineMemoryLimitRGMA(t *testing.T) {
	lab := newFakeLab()
	res, err := Run(lab, Config{
		Policy:         engine.RGMA{},
		MaxExperiments: 40,
		MemLimitMB:     0.3,
		Seed:           4,
		InitDesign: []dataset.Combo{
			{P: 8, Mx: 16, MaxLevel: 4, R0: 0.3, RhoIn: 0.1},
			{P: 4, Mx: 32, MaxLevel: 5, R0: 0.3, RhoIn: 0.1}, // a high-memory point to inform the model
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	violations := 0
	for _, v := range res.Violation {
		if v {
			violations++
		}
	}
	if violations > 3 {
		t.Fatalf("online RGMA violated the limit %d times", violations)
	}
}

func TestOnlineLabErrorPropagates(t *testing.T) {
	lab := &errLab{fakeLab{combos: dataset.AllCombos()}}
	_, err := Run(lab, Config{Policy: engine.RandUniform{}, MaxExperiments: 10, Seed: 5})
	if err == nil {
		t.Fatal("lab failure swallowed")
	}
}

func TestSimLabRunsAndCachesReferences(t *testing.T) {
	lab := NewSimLab(SimLabConfig{RefNx: 32, RefTEnd: 0.05, RefSnaps: 3, Seed: 6})
	c := dataset.Combo{P: 8, Mx: 8, MaxLevel: 3, R0: 0.3, RhoIn: 0.1}
	job, err := lab.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if job.CostNH <= 0 || job.MemMB <= 0 {
		t.Fatalf("bad job %+v", job)
	}
	if lab.NumReferenceRuns() != 1 {
		t.Fatalf("references = %d want 1", lab.NumReferenceRuns())
	}
	// Same physics, different grid: no new reference.
	c2 := c
	c2.Mx = 16
	if _, err := lab.Run(c2); err != nil {
		t.Fatal(err)
	}
	if lab.NumReferenceRuns() != 1 {
		t.Fatalf("references = %d want 1 (cache miss)", lab.NumReferenceRuns())
	}
	// Different physics: one more.
	c3 := c
	c3.R0 = 0.4
	if _, err := lab.Run(c3); err != nil {
		t.Fatal(err)
	}
	if lab.NumReferenceRuns() != 2 {
		t.Fatalf("references = %d want 2", lab.NumReferenceRuns())
	}
	if len(lab.Candidates()) != 1920 {
		t.Fatalf("candidates = %d", len(lab.Candidates()))
	}
}

func TestOnlineEndToEndWithSimLab(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed online campaign in -short mode")
	}
	lab := NewSimLab(SimLabConfig{RefNx: 32, RefTEnd: 0.05, RefSnaps: 3, Seed: 7})
	res, err := Run(lab, Config{
		Policy:         engine.RGMA{},
		MaxExperiments: 6,
		Seed:           8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 7 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	// The cost-efficient policy should mostly stick to physics it has seen,
	// keeping the reference cache small.
	if lab.NumReferenceRuns() > 7 {
		t.Fatalf("surprisingly many reference runs: %d", lab.NumReferenceRuns())
	}
}
