package online

import (
	"encoding/json"
	"path/filepath"
	"runtime"
	"testing"

	"alamr/internal/engine"
	"alamr/internal/faults"
	"alamr/internal/mat"
)

// Online campaigns fit and refit both surrogates through engine.FitPair,
// live and again when a resume replays the feed log. A sparse campaign
// with refits, killed mid-flight and resumed, must give the bytes of the
// uninterrupted one-worker run at every worker setting.
func TestOnlineFitPairResumeWorkerInvariant(t *testing.T) {
	const seed = 31
	cfg := func() Config {
		c := campaignCfg(seed)
		c.MaxExperiments = 24
		c.Model = &engine.ModelSpec{Name: engine.ModelSparse, Inducing: 8}
		return c
	}
	workers := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		workers = append(workers, p)
	}
	var want []byte
	for _, w := range workers {
		prev := mat.SetWorkers(w)
		full, err := Run(faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), cfg())
		if err != nil {
			mat.SetWorkers(prev)
			t.Fatalf("%d workers: %v", w, err)
		}
		c := cfg()
		c.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
		if _, err := Run(&killLab{inner: faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), after: 19}, c); err == nil {
			mat.SetWorkers(prev)
			t.Fatalf("%d workers: campaign survived the kill", w)
		}
		resumed, err := Run(faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), c)
		mat.SetWorkers(prev)
		if err != nil {
			t.Fatalf("%d workers: resume: %v", w, err)
		}
		got, err := json.Marshal(full)
		if err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(resumed)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(got) {
			t.Fatalf("%d workers: resumed campaign differs from the uninterrupted one", w)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("%d workers: campaign differs from the one-worker run", w)
		}
	}
	var res Result
	if err := json.Unmarshal(want, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.CumCost) < 20 {
		t.Fatalf("campaign made %d selections, want at least 20 (two refits)", len(res.CumCost))
	}
}
