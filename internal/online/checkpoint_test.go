package online

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/faults"
)

// faultyCfg is the shared fault cocktail of the determinism and resume
// tests: every injectable class is live.
func faultyCfg(seed int64) faults.LabConfig {
	return faults.LabConfig{
		Seed:       seed,
		RSSLimitMB: 0.35,
		PTransient: 0.15,
		PCorrupt:   0.1,
	}
}

func campaignCfg(seed int64) Config {
	return Config{
		Policy:         engine.RGMA{},
		MaxExperiments: 14,
		MemLimitMB:     0.35,
		Seed:           seed,
		Retry:          faults.RetryPolicy{MaxAttempts: 6},
	}
}

// TestOnlineFaultyCampaignDeterministic pins the reproducibility guarantee:
// with fixed seeds, a campaign run through the fault injector — retries,
// censored observations and all — is bitwise identical across runs.
// (reflect.DeepEqual compares float64 slices exactly; Results never carry
// NaN, so equality here is bitwise equality.)
func TestOnlineFaultyCampaignDeterministic(t *testing.T) {
	run := func() (*Result, error) {
		lab := faults.MustFaultyLab(newFakeLab(), faultyCfg(31))
		return Run(lab, campaignCfg(31))
	}
	a, errA := run()
	b, errB := run()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("error mismatch: %v vs %v", errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault campaign not reproducible:\n%+v\nvs\n%+v", a, b)
	}
	if !a.Health.Consistent() {
		t.Fatalf("health ledger does not balance: %+v", a.Health)
	}
	if a.Health.Attempts <= a.Health.Successes {
		t.Fatalf("fault cocktail injected nothing: %+v", a.Health)
	}
}

// killLab wraps a lab and fails fatally (with an unclassifiable error) after
// a fixed number of calls — the test's stand-in for kill -9.
type killLab struct {
	inner engine.Lab
	after int
	calls int
}

func (l *killLab) Candidates() []dataset.Combo { return l.inner.Candidates() }

func (l *killLab) Run(c dataset.Combo) (dataset.Job, error) {
	l.calls++
	if l.calls > l.after {
		return dataset.Job{}, errors.New("process killed")
	}
	return l.inner.Run(c)
}

func (l *killLab) LabState() ([]byte, error) {
	if r, ok := l.inner.(faults.Resumable); ok {
		return r.LabState()
	}
	return nil, nil
}

func (l *killLab) RestoreLabState(b []byte) error {
	if r, ok := l.inner.(faults.Resumable); ok {
		return r.RestoreLabState(b)
	}
	return nil
}

// TestOnlineCheckpointKillResume is the crash-recovery contract: a campaign
// killed mid-flight and resumed from its checkpoint produces a Result
// bitwise identical to an uninterrupted run — same selections, same
// censored observations, same health ledger.
func TestOnlineCheckpointKillResume(t *testing.T) {
	const seed = 31
	uninterrupted, err := Run(faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), campaignCfg(seed))
	if err != nil {
		t.Fatalf("uninterrupted run failed: %v", err)
	}

	for _, killAfter := range []int{1, 5, 11} {
		path := filepath.Join(t.TempDir(), "campaign.ckpt")

		// First process: dies after killAfter lab calls.
		cfg := campaignCfg(seed)
		cfg.CheckpointPath = path
		kl := &killLab{inner: faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), after: killAfter}
		partial, err := Run(kl, cfg)
		if err == nil {
			t.Fatalf("killAfter=%d: campaign survived the kill", killAfter)
		}
		if partial == nil {
			t.Fatalf("killAfter=%d: no partial result returned", killAfter)
		}
		if partial.Reason != engine.StopFault {
			t.Fatalf("killAfter=%d: reason %s", killAfter, partial.Reason)
		}
		// A kill during the warm-up job (killAfter=1) predates the first
		// checkpoint write; resume then simply starts fresh. Later kills
		// must find a checkpoint on disk.
		if killAfter > 1 {
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("killAfter=%d: no checkpoint on disk: %v", killAfter, err)
			}
		}

		// Second process: fresh lab, fresh campaign, same checkpoint.
		resumed, err := Run(faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), cfg)
		if err != nil {
			t.Fatalf("killAfter=%d: resume failed: %v", killAfter, err)
		}
		if !reflect.DeepEqual(resumed, uninterrupted) {
			t.Fatalf("killAfter=%d: resumed trajectory diverged from uninterrupted run\nresumed: %+v\nuninterrupted: %+v",
				killAfter, resumed, uninterrupted)
		}

		// Running once more against the finished checkpoint is idempotent.
		again, err := Run(faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), cfg)
		if err != nil {
			t.Fatalf("killAfter=%d: rerun after done: %v", killAfter, err)
		}
		if !reflect.DeepEqual(again, uninterrupted) {
			t.Fatalf("killAfter=%d: done checkpoint not idempotent", killAfter)
		}
	}
}

// TestOnlineCheckpointCleanLab verifies checkpoint/resume also holds for a
// plain fault-free lab (no Resumable state beyond determinism).
func TestOnlineCheckpointCleanLab(t *testing.T) {
	cfg := Config{Policy: engine.RandGoodness{}, MaxExperiments: 10, Seed: 5}
	uninterrupted, err := Run(newFakeLab(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "clean.ckpt")
	cfg.CheckpointPath = path
	kl := &killLab{inner: newFakeLab(), after: 6}
	if _, err := Run(kl, cfg); err == nil {
		t.Fatal("campaign survived the kill")
	}
	resumed, err := Run(newFakeLab(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, uninterrupted) {
		t.Fatal("resumed clean-lab trajectory diverged")
	}
}

// TestOnlineResumeExhaustedPool: a checkpoint taken after the last
// candidate ran, but before the campaign was marked done, resumes into an
// empty pool. The scorer builds no caches, and the campaign ends
// pool-exhausted with the result it already had. The journal is cut back to
// that point by dropping its final line, the done delta.
func TestOnlineResumeExhaustedPool(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exhausted.ckpt")
	cfg := Config{Policy: engine.RandUniform{}, MaxExperiments: 50, Seed: 4, CheckpointPath: path}
	small := func() *fakeLab { return &fakeLab{combos: dataset.AllCombos()[:6]} }
	want, err := Run(small(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Reason != engine.StopPoolExhausted {
		t.Fatalf("reason = %s, want %s", want.Reason, engine.StopPoolExhausted)
	}
	lines := journalLines(t, path)
	var last checkpointFile
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if !last.Done || len(lines) < 2 {
		t.Fatalf("journal of %d lines does not end in a done delta", len(lines))
	}
	writeLines(t, path, lines[:len(lines)-1])
	if ck, err := readCheckpoint(path); err != nil || ck.Done {
		t.Fatalf("cut journal: done %v, err %v", ck != nil && ck.Done, err)
	}
	got, err := Run(small(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed exhausted campaign diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestOnlineResumeRejectsMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	cfg := Config{Policy: engine.RandGoodness{}, MaxExperiments: 3, Seed: 9, CheckpointPath: path}
	if _, err := Run(newFakeLab(), cfg); err != nil {
		t.Fatal(err)
	}
	// Finished checkpoints replay idempotently even under a changed policy?
	// No: config mismatch must be detected before any replay.
	bad := cfg
	bad.Policy = engine.MaxSigma{}
	if _, err := Run(newFakeLab(), bad); err == nil {
		t.Fatal("policy mismatch accepted")
	}
	bad = cfg
	bad.Seed = 10
	if _, err := Run(newFakeLab(), bad); err == nil {
		t.Fatal("seed mismatch accepted")
	}
}

func TestReadCheckpointErrors(t *testing.T) {
	if ck, err := readCheckpoint(filepath.Join(t.TempDir(), "missing")); ck != nil || err != nil {
		t.Fatalf("missing file: %v %v", ck, err)
	}
	p := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(p, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCheckpoint(p); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := os.WriteFile(p, []byte(`{"version": 99, "result": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCheckpoint(p); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestCheckpointRestoreErrorPaths pins the failure taxonomy of checkpoint
// restoration: a truncated file, garbled bytes, corrupted lab state, and a
// surrogate-model mismatch each surface a distinct sentinel (errors.Is) so
// operators can tell a crashed copy from a trashed disk from a
// wrong-campaign resume. A complete journal line that does not decode, does
// not continue the journal or leaves the records unequal is corrupt; a cut
// inside the snapshot line is truncation.
func TestCheckpointRestoreErrorPaths(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	seed := int64(31)

	// Produce a real mid-campaign checkpoint by killing the lab partway.
	cfg := campaignCfg(seed)
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = 1
	kl := &killLab{inner: faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), after: 5}
	if _, err := Run(kl, cfg); err == nil {
		t.Fatal("kill-lab campaign unexpectedly completed")
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	resume := func(t *testing.T, data []byte, cfg Config) error {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Run(faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), cfg)
		return err
	}

	lines := journalLines(t, path)
	if len(lines) < 4 {
		t.Fatalf("journal holds %d lines, want a snapshot and at least three deltas", len(lines))
	}
	// edit returns the journal with line i's fields changed by f.
	edit := func(i int, f func(map[string]json.RawMessage)) []byte {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(lines[i], &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out := slices.Clone(lines)
		out[i] = append(b, '\n')
		return bytes.Join(out, nil)
	}
	// editResult is edit on the line's Result fields.
	editResult := func(i int, f func(map[string]json.RawMessage)) []byte {
		return edit(i, func(m map[string]json.RawMessage) {
			var r map[string]json.RawMessage
			if err := json.Unmarshal(m["result"], &r); err != nil {
				t.Fatal(err)
			}
			f(r)
			m["result"], _ = json.Marshal(r)
		})
	}
	last := len(lines) - 1
	garbled := slices.Clone(lines)
	garbled[2] = append(bytes.Repeat([]byte{'#'}, len(lines[2])-1), '\n')
	corruptBytes := slices.Clone(good)
	copy(corruptBytes[4:], "####") // garble inside the snapshot line, same length

	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		// A cut inside the snapshot line leaves nothing to resume from.
		{"truncated file", good[:len(lines[0])/2], ErrCheckpointTruncated},
		{"snapshot line without newline", lines[0][:len(lines[0])-1], ErrCheckpointTruncated},
		{"empty file", nil, ErrCheckpointTruncated},
		{"corrupted bytes", corruptBytes, ErrCheckpointCorrupt},
		// Valid JSON (the journal decodes) whose shape the faulty lab's
		// RestoreLabState rejects, on the last line: the one restored.
		{"corrupted lab state", edit(last, func(m map[string]json.RawMessage) {
			if _, ok := m["lab_state"]; !ok {
				t.Fatal("checkpoint carries no lab state to corrupt")
			}
			m["lab_state"] = json.RawMessage(`{"attempts": "not-a-list"}`)
		}), ErrCheckpointCorrupt},
		{"garbled delta line", bytes.Join(garbled, nil), ErrCheckpointCorrupt},
		{"empty delta line", append(slices.Clone(good), '\n'), ErrCheckpointCorrupt},
		{"dropped delta line", bytes.Join(slices.Delete(slices.Clone(lines), 2, 3), nil), ErrCheckpointCorrupt},
		{"repeated delta line", bytes.Join(slices.Insert(slices.Clone(lines), 2, lines[2]), nil), ErrCheckpointCorrupt},
		{"wrong continuation", edit(last, func(m map[string]json.RawMessage) {
			m["after"] = json.RawMessage("1")
		}), ErrCheckpointCorrupt},
		{"second snapshot", edit(2, func(m map[string]json.RawMessage) {
			m["version"] = json.RawMessage("2")
		}), ErrCheckpointCorrupt},
		{"delta without result", edit(last, func(m map[string]json.RawMessage) {
			delete(m, "result")
		}), ErrCheckpointCorrupt},
		{"unequal records", editResult(last, func(r map[string]json.RawMessage) {
			r["CumRegret"] = json.RawMessage("null")
		}), ErrCheckpointCorrupt},
		{"extra job", editResult(last, func(r map[string]json.RawMessage) {
			var jobs []json.RawMessage
			if err := json.Unmarshal(r["Jobs"], &jobs); err != nil {
				t.Fatal(err)
			}
			r["Jobs"], _ = json.Marshal(append(jobs, jobs...))
		}), ErrCheckpointCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkSentinel(t, resume(t, tc.data, cfg), tc.want)
		})
	}
	t.Run("model mismatch", func(t *testing.T) {
		mcfg := cfg
		mcfg.Model = &engine.ModelSpec{Name: engine.ModelSparse, Inducing: 16}
		checkSentinel(t, resume(t, good, mcfg), ErrCheckpointModelMismatch)
	})
	t.Run("intact checkpoint still resumes", func(t *testing.T) {
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), cfg); err != nil {
			t.Fatalf("undamaged checkpoint failed to resume: %v", err)
		}
	})
}
