package online

import (
	"math"
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/faults"
	"alamr/internal/mat"
)

// After a full faults-injected campaign — censored OOM feeds that grow only
// the memory surrogate, retries, periodic refits, and pool removals — the
// scorer's cached candidate scores must still agree with direct Predict
// over the final pool within the pinned 1e-12 tolerance. This is the online counterpart of
// the gp-level equivalence suite, driven by the real feed paths instead of
// a synthetic schedule.
func TestOnlineScoringCacheMatchesPredict(t *testing.T) {
	lab := faults.MustFaultyLab(newFakeLab(), faultyCfg(19))
	c := newCampaign(lab, campaignCfg(19))
	c.cfg.setDefaults()
	if err := c.init(); err != nil {
		t.Fatalf("init: %v", err)
	}
	if _, err := c.loop(); err != nil {
		t.Fatalf("loop: %v", err)
	}
	if c.res.Health.Censored == 0 {
		t.Fatal("fault cocktail produced no censored feeds; the test lost its point")
	}
	n := c.scorer.Len()
	if want := len(c.pool) - len(c.res.PredictedCost); n != want {
		t.Fatalf("scorer tracks %d candidates, want %d", n, want)
	}
	cands := c.scorer.Candidates(math.Inf(1))
	if cands.Len() != n {
		t.Fatalf("scorer scored %d candidates, tracks %d", cands.Len(), n)
	}

	x := mat.NewDense(n, dataset.NumFeatures, nil)
	for i := 0; i < n; i++ {
		combo := c.pool[c.scorer.ID(i)]
		f := dataset.ScaleFeatures(dataset.Job{P: combo.P, Mx: combo.Mx, MaxLevel: combo.MaxLevel, R0: combo.R0, RhoIn: combo.RhoIn})
		copy(x.Row(i), f[:])
	}
	for _, m := range []struct {
		name      string
		mu, sigma []float64
		predict   func(*mat.Dense) (mu, sigma []float64)
	}{
		{"cost", cands.MuCost, cands.SigmaCost, c.gpCost.Predict},
		{"mem", cands.MuMem, cands.SigmaMem, c.gpMem.Predict},
	} {
		mu, sigma := m.mu, m.sigma
		wantMu, wantSigma := m.predict(x)
		for i := range wantMu {
			if math.Abs(mu[i]-wantMu[i]) > 1e-12 || math.Abs(sigma[i]-wantSigma[i]) > 1e-12 {
				t.Fatalf("%s surrogate: candidate %d: cached (%.17g, %.17g) vs Predict (%.17g, %.17g)",
					m.name, i, mu[i], sigma[i], wantMu[i], wantSigma[i])
			}
		}
	}
}
