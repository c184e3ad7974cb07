package online

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"alamr/internal/dataset"
	"alamr/internal/engine"
)

// fidelityLadder is the shared 3-rung ladder of the online fidelity tests.
func fidelityLadder() *engine.FidelitySpec {
	return &engine.FidelitySpec{Levels: []int{3, 4, 6}}
}

func fidelityCampaignCfg(seed int64) Config {
	return Config{
		Policy:         engine.CostPerInfo{},
		MaxExperiments: 12,
		Seed:           seed,
		Fidelity:       fidelityLadder(),
	}
}

// TestOnlineFidelityEndToEnd drives a live multi-fidelity campaign: the
// candidate pool restricts to the ladder, the default init design seeds every
// rung, the cost-per-information acquisition selects across rungs, and every
// selection's ladder level is recorded.
func TestOnlineFidelityEndToEnd(t *testing.T) {
	res, err := Run(newFakeLab(), fidelityCampaignCfg(13))
	if err != nil {
		t.Fatal(err)
	}
	ladder := fidelityLadder()
	// Default init design: one seed per rung.
	if want := len(ladder.Levels) + 12; len(res.Jobs) != want {
		t.Fatalf("ran %d jobs, want %d (one init per rung + 12 selections)", len(res.Jobs), want)
	}
	for i, j := range res.Jobs {
		if ladder.LevelOf(j.MaxLevel) < 0 {
			t.Fatalf("job %d ran at maxlevel %d, off the ladder %v", i, j.MaxLevel, ladder.Levels)
		}
	}
	if len(res.SelectedLevel) != len(res.PredictedCost) {
		t.Fatalf("recorded %d selection levels for %d selections", len(res.SelectedLevel), len(res.PredictedCost))
	}
	low := false
	for i, lv := range res.SelectedLevel {
		if lv < 0 || lv >= len(ladder.Levels) {
			t.Fatalf("selection %d has ladder level %d", i, lv)
		}
		if want := ladder.LevelOf(res.Jobs[len(ladder.Levels)+i].MaxLevel); lv != want {
			t.Fatalf("selection %d recorded level %d, job says %d", i, lv, want)
		}
		if lv < len(ladder.Levels)-1 {
			low = true
		}
	}
	if !low {
		t.Fatal("cost-per-information never spent a cheap rung; the fidelity dial is dead")
	}
}

// TestOnlineFidelitySingleFidelityResultUnchanged: a campaign without a
// fidelity section must not grow a SelectedLevel record (its checkpoint JSON
// stays byte-compatible with pre-fidelity files).
func TestOnlineFidelitySingleFidelityResultUnchanged(t *testing.T) {
	res, err := Run(newFakeLab(), Config{Policy: engine.RandGoodness{}, MaxExperiments: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectedLevel != nil {
		t.Fatalf("single-fidelity campaign recorded levels: %v", res.SelectedLevel)
	}
}

// TestOnlineFidelityDeterministic pins reproducibility of the co-kriging
// campaign: identical seeds give bitwise-identical Results.
func TestOnlineFidelityDeterministic(t *testing.T) {
	a, err := Run(newFakeLab(), fidelityCampaignCfg(29))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(newFakeLab(), fidelityCampaignCfg(29))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fidelity campaign not reproducible:\n%+v\nvs\n%+v", a, b)
	}
}

// TestOnlineFidelityCheckpointKillResume: a multi-fidelity campaign killed
// mid-flight and resumed from its checkpoint reproduces the uninterrupted
// trajectory bitwise — per-level surrogate state, ladder selections and all.
func TestOnlineFidelityCheckpointKillResume(t *testing.T) {
	const seed = 17
	uninterrupted, err := Run(newFakeLab(), fidelityCampaignCfg(seed))
	if err != nil {
		t.Fatal(err)
	}

	for _, killAfter := range []int{4, 7, 11} {
		cfg := fidelityCampaignCfg(seed)
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "fid.ckpt")
		kl := &killLab{inner: newFakeLab(), after: killAfter}
		if _, err := Run(kl, cfg); err == nil {
			t.Fatalf("killAfter=%d: campaign survived the kill", killAfter)
		}
		resumed, err := Run(newFakeLab(), cfg)
		if err != nil {
			t.Fatalf("killAfter=%d: resume failed: %v", killAfter, err)
		}
		if !reflect.DeepEqual(resumed, uninterrupted) {
			t.Fatalf("killAfter=%d: resumed fidelity trajectory diverged\nresumed: %+v\nuninterrupted: %+v",
				killAfter, resumed, uninterrupted)
		}
	}
}

// TestOnlineFidelityResumeRejectsLadderMismatch: the checkpoint stamps the
// fidelity ladder as part of the campaign identity; resuming under a
// different ladder — or none — must fail with the model-mismatch sentinel
// before any state is replayed.
func TestOnlineFidelityResumeRejectsLadderMismatch(t *testing.T) {
	cfg := fidelityCampaignCfg(23)
	cfg.MaxExperiments = 4
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "fid.ckpt")
	if _, err := Run(newFakeLab(), cfg); err != nil {
		t.Fatal(err)
	}

	bad := cfg
	bad.Fidelity = &engine.FidelitySpec{Levels: []int{3, 5, 6}}
	if _, err := Run(newFakeLab(), bad); !errors.Is(err, ErrCheckpointModelMismatch) {
		t.Fatalf("ladder mismatch accepted: %v", err)
	}
	bad = cfg
	bad.Fidelity = nil
	if _, err := Run(newFakeLab(), bad); !errors.Is(err, ErrCheckpointModelMismatch) {
		t.Fatalf("fidelity checkpoint resumed as single-fidelity: %v", err)
	}
}

// TestOnlineFidelityInitDesignValidation: explicit warm-up combos must sit on
// the ladder, and a malformed ladder is rejected before the lab runs.
func TestOnlineFidelityInitDesignValidation(t *testing.T) {
	cfg := fidelityCampaignCfg(5)
	cfg.InitDesign = []dataset.Combo{{P: 8, Mx: 16, MaxLevel: 5, R0: 0.3, RhoIn: 0.1}}
	if _, err := Run(newFakeLab(), cfg); err == nil {
		t.Fatal("off-ladder init design accepted")
	}
	cfg = fidelityCampaignCfg(5)
	cfg.Fidelity = &engine.FidelitySpec{Levels: []int{6, 3}}
	if _, err := Run(newFakeLab(), cfg); err == nil {
		t.Fatal("descending ladder accepted")
	}
}

// TestRunSpecOnlineFidelity: an online fidelity campaign is fully
// spec-describable, and the spec layer configures the identical campaign as
// a hand-built Config.
func TestRunSpecOnlineFidelity(t *testing.T) {
	ds := specDataset(160, 47)
	ladder := fidelityLadder()
	var initDesign []dataset.Combo
	for _, l := range ladder.Levels {
		for _, j := range ds.Jobs {
			if j.MaxLevel == l {
				initDesign = append(initDesign, j.Config())
				break
			}
		}
	}
	if len(initDesign) != len(ladder.Levels) {
		t.Fatalf("dataset covers %d of %d rungs", len(initDesign), len(ladder.Levels))
	}
	spec := engine.CampaignSpec{
		Version:  engine.SpecVersion,
		Name:     "online-fidelity",
		Mode:     engine.ModeOnline,
		Policy:   engine.PolicySpec{Name: "costperinfo"},
		Seed:     11,
		Fidelity: ladder,
		Online: &engine.OnlineSpec{
			Lab:            engine.LabSpec{Name: "replay"},
			MaxExperiments: 8,
			InitDesign:     initDesign,
		},
	}
	viaSpec, err := RunSpec(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(engine.NewReplayLab(ds), Config{
		Policy:         engine.CostPerInfo{},
		MaxExperiments: 8,
		Seed:           11,
		Fidelity:       fidelityLadder(),
		InitDesign:     initDesign,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaSpec, direct) {
		t.Fatal("spec-layer fidelity campaign differs from the direct Run call")
	}
	if len(viaSpec.SelectedLevel) != len(viaSpec.PredictedCost) {
		t.Fatalf("spec campaign recorded %d levels for %d selections",
			len(viaSpec.SelectedLevel), len(viaSpec.PredictedCost))
	}
}

// slowLab delays every lab call, giving the chaos test a wide window to
// SIGKILL the campaign subprocess mid-round.
type slowLab struct {
	inner engine.Lab
	delay time.Duration
}

func (l *slowLab) Candidates() []dataset.Combo { return l.inner.Candidates() }

func (l *slowLab) Run(c dataset.Combo) (dataset.Job, error) {
	time.Sleep(l.delay)
	return l.inner.Run(c)
}

// TestFidelityCampaignHelper is not a test: it is the campaign subprocess
// body the SIGKILL chaos test spawns by re-exec'ing the test binary. Without
// the env gate it skips.
func TestFidelityCampaignHelper(t *testing.T) {
	path := os.Getenv("AL_FIDELITY_CKPT")
	if path == "" {
		t.Skip("helper process: only meaningful when re-exec'd by the chaos test")
	}
	cfg := fidelityCampaignCfg(41)
	cfg.CheckpointPath = path
	if _, err := Run(&slowLab{inner: newFakeLab(), delay: 60 * time.Millisecond}, cfg); err != nil {
		t.Fatalf("helper campaign: %v", err)
	}
}

// TestOnlineFidelityChaosSIGKILLResume is the crash-recovery acceptance pin
// for multi-fidelity campaigns: a real OS process running the campaign is
// SIGKILLed mid-round (no deferred cleanup, no atexit — the hard kill), and
// a fresh process resuming from the surviving checkpoint must land on a
// Result bitwise identical to an uninterrupted run. The campaign is killed
// twice over: as soon as the journal exists (its snapshot line alone), and
// once it holds at least three appended lines.
func TestOnlineFidelityChaosSIGKILLResume(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a campaign subprocess; run directly or via make chaos")
	}
	const seed = 41
	uninterrupted, err := Run(newFakeLab(), fidelityCampaignCfg(seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		appends int
	}{
		{"snapshot", 0},
		{"three appends", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "chaos-fid.ckpt")
			killWhenJournaled(t, path, tc.appends)

			ck, err := readCheckpoint(path)
			if err != nil {
				t.Fatalf("surviving checkpoint unreadable: %v", err)
			}
			if ck.Done {
				t.Fatal("campaign finished before the kill; the chaos window is too narrow")
			}
			if got := len(ck.Result.PredictedCost); got < tc.appends {
				t.Fatalf("killed journal holds %d selections, want at least %d", got, tc.appends)
			}
			if got, want := ck.Model, engine.ModelMultiFid; got != want {
				t.Fatalf("checkpoint stamps model %q, want %q", got, want)
			}

			cfg := fidelityCampaignCfg(seed)
			cfg.CheckpointPath = path
			resumed, err := Run(newFakeLab(), cfg)
			if err != nil {
				t.Fatalf("resume after SIGKILL: %v", err)
			}
			if !reflect.DeepEqual(resumed, uninterrupted) {
				t.Fatalf("post-SIGKILL resume diverged from the uninterrupted run\nresumed: %+v\nuninterrupted: %+v",
					resumed, uninterrupted)
			}
		})
	}
}

// killWhenJournaled runs the helper campaign in a subprocess against the
// journal at path and SIGKILLs it once the journal holds its snapshot line
// and at least appends more lines. The helper's per-job slowdown leaves
// most of the campaign still to run, so the kill is mid-flight by a wide
// margin.
func killWhenJournaled(t *testing.T, path string, appends int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestFidelityCampaignHelper$")
	cmd.Env = append(os.Environ(), "AL_FIDELITY_CKPT="+path)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(path); err == nil && bytes.Count(data, []byte{'\n'}) > appends {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign subprocess never journaled %d appended lines", appends)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	cmd.Wait()
}
