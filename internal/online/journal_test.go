package online

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/faults"
)

// journalLines reads a checkpoint journal and splits it into its lines,
// each with its newline; an unterminated tail is returned as a last line.
func journalLines(t testing.TB, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte{'\n'})
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// writeLines writes journal lines back to path.
func writeLines(t testing.TB, path string, lines [][]byte) {
	t.Helper()
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkSentinel asserts err wraps exactly the wanted checkpoint sentinel
// and no other.
func checkSentinel(t *testing.T, err, want error) {
	t.Helper()
	if err == nil {
		t.Fatal("damaged checkpoint accepted")
	}
	for _, s := range []error{ErrCheckpointCorrupt, ErrCheckpointTruncated, ErrCheckpointModelMismatch} {
		if got := errors.Is(err, s); got != (s == want) {
			t.Fatalf("error %q: errors.Is(%v) = %v, want the %v sentinel only", err, s, got, want)
		}
	}
}

// faultyLab is the fault cocktail of the resume tests over the fake lab.
func faultyLab() engine.Lab { return faults.MustFaultyLab(newFakeLab(), faultyCfg(31)) }

// killedJournal runs the campaign into a fresh checkpoint journal until the
// lab dies after killAfter calls, and returns the config pointing at that
// journal.
func killedJournal(t testing.TB, cfg Config, lab func() engine.Lab, killAfter int) Config {
	t.Helper()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
	if _, err := Run(&killLab{inner: lab(), after: killAfter}, cfg); err == nil {
		t.Fatal("campaign survived the kill")
	}
	return cfg
}

// TestCheckpointJournalTornTail: a kill mid-append leaves the journal's
// last line without its newline. Cut at every byte offset inside the last
// line, the journal resumes to the uninterrupted Result, and a second kill
// after such a resume resumes again.
func TestCheckpointJournalTornTail(t *testing.T) {
	// Every eighth grid point as the pool, fixed hyperparameters and a short
	// campaign keep each of the ~1,300 resumes to a few milliseconds.
	var pool []dataset.Combo
	for i, c := range dataset.AllCombos() {
		if i%8 == 0 {
			pool = append(pool, c)
		}
	}
	lab := func() engine.Lab { return faults.MustFaultyLab(&fakeLab{combos: pool}, faultyCfg(31)) }
	cfg := campaignCfg(31)
	cfg.GP.NoOptimize = true
	cfg.MaxExperiments = 8
	want, err := Run(lab(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = killedJournal(t, cfg, lab, 8)
	path := cfg.CheckpointPath
	lines := journalLines(t, path)
	if len(lines) < 3 {
		t.Fatalf("journal holds %d lines, want a snapshot and deltas", len(lines))
	}
	whole := bytes.Join(lines, nil)
	lastStart := len(whole) - len(lines[len(lines)-1])
	prefix, err := decodeCheckpoint(whole[:lastStart])
	if err != nil {
		t.Fatal(err)
	}
	// Every cut decodes to the journal without its last line. Under -short
	// (the race run) every eighth cut, and the last, also resumes.
	stride := 1
	if testing.Short() {
		stride = 8
	}
	for cut := lastStart; cut < len(whole); cut++ {
		torn := whole[:cut]
		ck, err := decodeCheckpoint(torn)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if !reflect.DeepEqual(ck, prefix) {
			t.Fatalf("cut at %d: the torn line was not dropped", cut)
		}
		if (cut-lastStart)%stride != 0 && cut != len(whole)-1 {
			continue
		}
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Run(lab(), cfg)
		if err != nil {
			t.Fatalf("cut at %d: resume: %v", cut, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: resumed Result diverged from the uninterrupted run", cut)
		}
	}

	// A resume killed in its turn rewrites the journal as its own snapshot
	// plus appends, and resumes again — also from a torn tail.
	for _, killAfter := range []int{1, 4} {
		if err := os.WriteFile(path, whole[:len(whole)-1], 0o644); err != nil {
			t.Fatal(err)
		}
		kl := &killLab{inner: lab(), after: killAfter}
		if _, err := Run(kl, cfg); err == nil {
			t.Fatalf("second kill after %d calls: campaign survived", killAfter)
		}
		second := journalLines(t, path)
		var head checkpointFile
		if err := json.Unmarshal(second[0], &head); err != nil || head.Version != checkpointVersion || head.Result == nil {
			t.Fatalf("second kill after %d calls: first line is not a snapshot (err %v)", killAfter, err)
		}
		if tail := second[len(second)-1]; len(second) > 1 {
			writeLines(t, path, append(second[:len(second)-1], tail[:len(tail)/2]))
		}
		got, err := Run(lab(), cfg)
		if err != nil {
			t.Fatalf("second kill after %d calls: resume: %v", killAfter, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("second kill after %d calls: resumed Result diverged", killAfter)
		}
	}
}

// TestCheckpointJournalEveryThree: with checkpoint_every 3, each save is
// one line covering three selections, and a kill anywhere — a torn batch
// line included — resumes to the uninterrupted Result.
func TestCheckpointJournalEveryThree(t *testing.T) {
	cfg := campaignCfg(31)
	cfg.CheckpointEvery = 3
	want, err := Run(faultyLab(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, killAfter := range []int{2, 6, 11, 17} {
		cfg := killedJournal(t, cfg, faultyLab, killAfter)
		path := cfg.CheckpointPath
		lines := journalLines(t, path)
		ck, err := readCheckpoint(path)
		if err != nil {
			t.Fatalf("killAfter=%d: %v", killAfter, err)
		}
		sel := len(ck.Result.PredictedCost)
		if sel%3 != 0 || len(lines) != 1+sel/3 {
			t.Fatalf("killAfter=%d: %d lines for %d selections, want one snapshot and one line per 3", killAfter, len(lines), sel)
		}
		for i, l := range lines[1:] {
			var d checkpointFile
			if err := json.Unmarshal(l, &d); err != nil {
				t.Fatal(err)
			}
			if d.After != 3*i || len(d.Result.PredictedCost) != 3 {
				t.Fatalf("killAfter=%d: line %d continues after %d with %d selections", killAfter, i+2, d.After, len(d.Result.PredictedCost))
			}
		}
		if len(lines) > 1 {
			// Tear the last batch: all three of its selections re-run.
			tail := lines[len(lines)-1]
			writeLines(t, path, append(lines[:len(lines)-1], tail[:len(tail)-1]))
		}
		got, err := Run(faultyLab(), cfg)
		if err != nil {
			t.Fatalf("killAfter=%d: resume: %v", killAfter, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("killAfter=%d: resumed Result diverged from the uninterrupted run", killAfter)
		}
	}
}

// TestCheckpointJournalVersion1: a version-1 checkpoint — the single JSON
// document older releases wrote, captured mid-campaign under testdata —
// resumes bitwise, and the resumed campaign rewrites it as a journal.
func TestCheckpointJournalVersion1(t *testing.T) {
	want, err := Run(faultyLab(), campaignCfg(31))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.IndexByte(v1, '\n') >= 0 || !bytes.HasPrefix(v1, []byte(`{"version":1,`)) {
		t.Fatal("fixture is not a version-1 checkpoint")
	}
	ck, err := decodeCheckpoint(v1)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Done || len(ck.Result.PredictedCost) == 0 {
		t.Fatalf("fixture holds %d selections, done %v; want a campaign in flight", len(ck.Result.PredictedCost), ck.Done)
	}
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := campaignCfg(31)
	cfg.CheckpointPath = path
	got, err := Run(faultyLab(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("version-1 resume diverged from the uninterrupted run")
	}
	lines := journalLines(t, path)
	var head checkpointFile
	if err := json.Unmarshal(lines[0], &head); err != nil || head.Version != checkpointVersion {
		t.Fatalf("resumed campaign left no version-%d snapshot (err %v)", checkpointVersion, err)
	}
	if again, err := Run(faultyLab(), cfg); err != nil || !reflect.DeepEqual(again, want) {
		t.Fatalf("rerun against the finished journal: err %v, equal %v", err, reflect.DeepEqual(again, want))
	}
}

// FuzzReadCheckpoint feeds arbitrary bytes to the checkpoint decoder, the
// trust boundary a resume reads: seeded from a real journal, the version-1
// fixture and cuts of both. It must never panic, every rejection must wrap
// exactly one checkpoint sentinel, and an accepted journal's records must
// line up.
func FuzzReadCheckpoint(f *testing.F) {
	cfg := killedJournal(f, campaignCfg(31), faultyLab, 9)
	journal, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		f.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	for _, data := range [][]byte{journal, v1} {
		f.Add(data)
		for _, frac := range []int{2, 3, 5, 7, 11} {
			f.Add(data[:len(data)*(frac-1)/frac])
		}
	}
	f.Add([]byte{})
	f.Add([]byte("{}\n{}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			n := 0
			for _, s := range []error{ErrCheckpointCorrupt, ErrCheckpointTruncated, ErrCheckpointModelMismatch} {
				if errors.Is(err, s) {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("rejection %q wraps %d checkpoint sentinels, want 1", err, n)
			}
			return
		}
		if ck.Result == nil {
			t.Fatal("accepted a checkpoint without a result")
		}
		if err := ck.checkRecords(); err != nil {
			t.Fatalf("accepted records that do not line up: %v", err)
		}
	})
}
