package online

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"slices"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/faults"
	"alamr/internal/obs"
	"alamr/internal/stats"
)

// checkpointVersion gates the on-disk schema; bump it whenever checkpointFile
// or feedRec changes incompatibly. Version 2 is the journal; a version-1
// file, the single document older releases rewrote on every save, is still
// read, as a snapshot with no deltas.
const checkpointVersion = 2

// Sentinel errors distinguishing the checkpoint-restore failure modes, so
// operators (and tests) can tell a half-written file from a trashed one from
// a checkpoint that simply belongs to a different campaign. All are wrapped
// with file/context detail — match with errors.Is.
var (
	// ErrCheckpointCorrupt marks checkpoint bytes that do not decode as the
	// expected schema: a complete journal line that is malformed JSON, a
	// missing result, a line that does not continue the journal, or records
	// that do not line up.
	ErrCheckpointCorrupt = errors.New("checkpoint corrupt")
	// ErrCheckpointTruncated marks a checkpoint cut short — an empty file or
	// a snapshot line that ends early, the signature of a crash during a
	// non-atomic copy (the writer itself renames every snapshot into
	// place). A cut inside an appended line is not an error: that line is
	// dropped.
	ErrCheckpointTruncated = errors.New("checkpoint truncated")
	// ErrCheckpointModelMismatch marks a checkpoint written under a
	// different surrogate model than the resuming configuration.
	ErrCheckpointModelMismatch = errors.New("checkpoint surrogate model mismatch")
)

// checkpointFile is one line of a campaign's checkpoint journal, and the
// state folded from all of them. The journal is JSON lines. The first line
// is a snapshot: the full Result so far, the model feed log (replayed to
// rebuild the exact GP state), the policy RNG stream position, the optional
// lab state and the campaign identity — everything a fresh process needs to
// continue the trajectory bitwise-identically. Every later line is a delta:
// the feeds and Result records added since the line before it, the running
// totals, health ledger, reason and lab state as of the save, and After,
// the number of selections it continues from. Fields that never change are
// left out of deltas.
type checkpointFile struct {
	Version   int             `json:"version,omitempty"`
	Policy    string          `json:"policy,omitempty"`
	Seed      int64           `json:"seed,omitempty"`
	InitLen   int             `json:"init_len,omitempty"`
	After     int             `json:"after,omitempty"`
	RNGDraws  uint64          `json:"rng_draws"`
	CumCost   float64         `json:"cum_cost"`
	CumRegret float64         `json:"cum_regret"`
	Model     string          `json:"model,omitempty"`
	Fidelity  []int           `json:"fidelity,omitempty"`
	Feeds     []feedRec       `json:"feeds,omitempty"`
	Result    *Result         `json:"result"`
	LabState  json.RawMessage `json:"lab_state,omitempty"`
	Done      bool            `json:"done,omitempty"`
}

// journalMark records what a campaign's checkpoint journal already holds:
// whether this process has written its snapshot line, and how many feeds,
// jobs and selections the lines so far cover.
type journalMark struct {
	snapshot         bool
	feeds, jobs, sel int
}

// saveCheckpoint records the campaign state in the checkpoint journal. The
// first save of a process writes a snapshot line through engine.WriteAtomic,
// replacing whatever the file held — a resumed journal and any torn tail
// included — so a crash mid-write never corrupts the previous checkpoint.
// Every later save appends one line holding only what changed since the
// previous one, so a save costs one short write however far the campaign
// has run. A torn append is dropped on resume, taking back exactly that
// save: one save is one line.
func (c *campaign) saveCheckpoint(done bool) error {
	if c.cfg.CheckpointPath == "" {
		return nil
	}
	sp := obs.SpanCheckpointWrite.Start()
	defer sp.End()
	res, m := c.res, c.journal
	line := checkpointFile{
		After:     m.sel,
		RNGDraws:  c.src.Draws(),
		CumCost:   c.cumCost,
		CumRegret: c.cumRegret,
		Feeds:     c.feeds[m.feeds:],
		Result: &Result{
			Jobs:          res.Jobs[m.jobs:],
			PredictedCost: res.PredictedCost[m.sel:],
			ActualCost:    res.ActualCost[m.sel:],
			PredictedMem:  res.PredictedMem[m.sel:],
			ActualMem:     res.ActualMem[m.sel:],
			CumCost:       res.CumCost[m.sel:],
			CumRegret:     res.CumRegret[m.sel:],
			Violation:     res.Violation[m.sel:],
			Censored:      res.Censored[m.sel:],
			SelectedLevel: res.SelectedLevel[min(m.sel, len(res.SelectedLevel)):], // nil unless fidelity
			Health:        res.Health,
			Reason:        res.Reason,
		},
		Done: done,
	}
	if r, ok := c.lab.(faults.Resumable); ok {
		st, err := r.LabState()
		if err != nil {
			return fmt.Errorf("online: capturing lab state: %w", err)
		}
		line.LabState = st
	}
	var err error
	if m.snapshot {
		err = appendLine(c.cfg.CheckpointPath, &line)
	} else {
		line.Version = checkpointVersion
		line.Policy = c.cfg.Policy.Name()
		line.Seed = c.cfg.Seed
		line.InitLen = c.initLen
		line.Model = configModelName(c.cfg)
		line.Fidelity = configFidelityLadder(c.cfg)
		var buf bytes.Buffer
		if err = json.NewEncoder(&buf).Encode(&line); err == nil {
			err = engine.WriteAtomic(c.cfg.CheckpointPath, buf.Bytes())
		}
	}
	if err != nil {
		return fmt.Errorf("online: writing checkpoint: %w", err)
	}
	c.journal = journalMark{snapshot: true, feeds: len(c.feeds), jobs: len(res.Jobs), sel: len(res.PredictedCost)}
	obs.CheckpointWrites.Inc()
	return nil
}

// appendLine appends one journal line to the checkpoint file. The encoder
// builds the whole line, newline included, before its single write, so a
// failed encode writes nothing and a kill mid-write leaves at most one
// line without its newline. The file is not created: a journal without its
// snapshot line could not be resumed.
func appendLine(path string, line *checkpointFile) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(line)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readCheckpoint loads a checkpoint journal and folds it into one
// checkpointFile; a missing file returns (nil, nil) so the caller starts a
// fresh campaign.
func readCheckpoint(path string) (*checkpointFile, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("online: reading checkpoint: %w", err)
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("online: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// decodeCheckpoint decodes a journal's snapshot line and folds every
// complete line after it. A last line without its newline is a torn append
// from a kill mid-write and is dropped. An empty journal or a snapshot line
// cut short is ErrCheckpointTruncated; a complete line that does not
// decode or does not continue the journal, or records left unequal, is
// ErrCheckpointCorrupt. A version-1 checkpoint, one document without a
// newline, decodes as a snapshot with no deltas.
func decodeCheckpoint(data []byte) (*checkpointFile, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("file is empty: %w", ErrCheckpointTruncated)
	}
	first, rest, complete := bytes.Cut(data, []byte{'\n'})
	var ck checkpointFile
	if err := json.Unmarshal(first, &ck); err != nil {
		if !complete && truncatedJSON(first, err) {
			return nil, fmt.Errorf("snapshot line ends mid-record (%v): %w", err, ErrCheckpointTruncated)
		}
		return nil, fmt.Errorf("decoding the snapshot line (%v): %w", err, ErrCheckpointCorrupt)
	}
	switch {
	case ck.Version != 1 && ck.Version != checkpointVersion:
		return nil, fmt.Errorf("version %d, want %d: %w", ck.Version, checkpointVersion, ErrCheckpointCorrupt)
	case ck.Version == checkpointVersion && !complete:
		// The snapshot line is renamed into place whole, newline included.
		return nil, fmt.Errorf("snapshot line has no newline: %w", ErrCheckpointTruncated)
	case ck.Result == nil:
		return nil, fmt.Errorf("carries no result: %w", ErrCheckpointCorrupt)
	}
	for n := 2; ; n++ {
		line, next, complete := bytes.Cut(rest, []byte{'\n'})
		if !complete {
			break
		}
		var d checkpointFile
		if err := json.Unmarshal(line, &d); err != nil {
			return nil, fmt.Errorf("decoding line %d (%v): %w", n, err, ErrCheckpointCorrupt)
		}
		if err := ck.fold(&d); err != nil {
			return nil, fmt.Errorf("line %d %v: %w", n, err, ErrCheckpointCorrupt)
		}
		rest = next
	}
	if err := ck.checkRecords(); err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrCheckpointCorrupt)
	}
	return &ck, nil
}

// fold applies one delta line: its feeds and records are appended, and its
// running totals, ledger, reason, lab state and done flag replace the
// folded ones. A delta must start where the journal ends and add one job
// and one feed per selection.
func (ck *checkpointFile) fold(d *checkpointFile) error {
	r, dr := ck.Result, d.Result
	switch {
	case d.Version != 0:
		return errors.New("is a second snapshot")
	case dr == nil:
		return errors.New("carries no result")
	case d.After != len(r.PredictedCost):
		return fmt.Errorf("continues after %d selections, the journal holds %d", d.After, len(r.PredictedCost))
	case len(dr.Jobs) != len(dr.PredictedCost) || len(d.Feeds) != len(dr.PredictedCost):
		return fmt.Errorf("adds %d jobs and %d feeds for %d selections", len(dr.Jobs), len(d.Feeds), len(dr.PredictedCost))
	}
	ck.Feeds = append(ck.Feeds, d.Feeds...)
	r.Jobs = append(r.Jobs, dr.Jobs...)
	r.PredictedCost = append(r.PredictedCost, dr.PredictedCost...)
	r.ActualCost = append(r.ActualCost, dr.ActualCost...)
	r.PredictedMem = append(r.PredictedMem, dr.PredictedMem...)
	r.ActualMem = append(r.ActualMem, dr.ActualMem...)
	r.CumCost = append(r.CumCost, dr.CumCost...)
	r.CumRegret = append(r.CumRegret, dr.CumRegret...)
	r.Violation = append(r.Violation, dr.Violation...)
	r.Censored = append(r.Censored, dr.Censored...)
	r.SelectedLevel = append(r.SelectedLevel, dr.SelectedLevel...)
	r.Health, r.Reason = dr.Health, dr.Reason
	ck.RNGDraws, ck.CumCost, ck.CumRegret = d.RNGDraws, d.CumCost, d.CumRegret
	ck.LabState, ck.Done = d.LabState, d.Done
	return nil
}

// checkRecords verifies a folded journal's records line up before any of
// them is replayed: one entry per selection in every per-selection record
// (levels only in a fidelity campaign), the init feeds plus one feed per
// selection, at least one job per feed, and a full feature row behind
// every observation.
func (ck *checkpointFile) checkRecords() error {
	r := ck.Result
	n := len(r.PredictedCost)
	levels := 0
	if len(ck.Fidelity) > 0 {
		levels = n
	}
	for _, l := range [...]int{len(r.ActualCost), len(r.PredictedMem), len(r.ActualMem),
		len(r.CumCost), len(r.CumRegret), len(r.Violation), len(r.Censored)} {
		if l != n {
			return fmt.Errorf("per-selection records of %d and %d entries", n, l)
		}
	}
	switch {
	case len(r.SelectedLevel) != levels:
		return fmt.Errorf("%d fidelity levels for %d selections", len(r.SelectedLevel), n)
	case ck.InitLen < 0 || len(ck.Feeds) != ck.InitLen+n:
		return fmt.Errorf("%d feed records for %d init feeds and %d selections", len(ck.Feeds), ck.InitLen, n)
	case len(r.Jobs) < len(ck.Feeds):
		return fmt.Errorf("%d jobs for %d feed records", len(r.Jobs), len(ck.Feeds))
	}
	for i, f := range ck.Feeds {
		if (f.LogCost != nil || f.LogMem != nil) && len(f.X) != dataset.NumFeatures {
			return fmt.Errorf("feed %d has %d features, want %d", i, len(f.X), dataset.NumFeatures)
		}
	}
	return nil
}

// truncatedJSON reports whether a decode failure is consistent with the
// input being cut short rather than garbled: the decoder ran off the end of
// the data ("unexpected end of JSON input" surfaces as a SyntaxError whose
// offset sits at or past the last byte).
func truncatedJSON(data []byte, err error) bool {
	var syn *json.SyntaxError
	if !errors.As(err, &syn) {
		return false
	}
	return syn.Offset >= int64(len(data))
}

// validateCheckpoint rejects checkpoints written under a different campaign
// identity before any state is replayed or returned.
func validateCheckpoint(cfg Config, ck *checkpointFile) error {
	if ck.Policy != cfg.Policy.Name() {
		return fmt.Errorf("online: checkpoint was written by policy %q, resuming with %q", ck.Policy, cfg.Policy.Name())
	}
	if ck.Seed != cfg.Seed {
		return fmt.Errorf("online: checkpoint seed %d does not match config seed %d", ck.Seed, cfg.Seed)
	}
	if got, want := canonicalModelName(ck.Model), canonicalModelName(configModelName(cfg)); got != want {
		return fmt.Errorf("online: checkpoint was written with surrogate model %q, resuming with %q: %w", got, want, ErrCheckpointModelMismatch)
	}
	if !slices.Equal(ck.Fidelity, configFidelityLadder(cfg)) {
		return fmt.Errorf("online: checkpoint was written with fidelity ladder %v, resuming with %v: %w",
			ck.Fidelity, configFidelityLadder(cfg), ErrCheckpointModelMismatch)
	}
	return nil
}

// configModelName reports the configured surrogate family name; "" for the
// default exact GP (and in pre-model checkpoints, which omitted the field).
// A fidelity campaign's implicit default is the co-kriging model, so its
// checkpoints are stamped "multifid" even with a nil Model spec.
func configModelName(cfg Config) string {
	if cfg.Model == nil {
		if cfg.Fidelity != nil {
			return engine.ModelMultiFid
		}
		return ""
	}
	return cfg.Model.Name
}

// configFidelityLadder reports the configured fidelity ladder's MaxLevel
// values; nil for single-fidelity campaigns (and pre-fidelity checkpoints,
// which omitted the field).
func configFidelityLadder(cfg Config) []int {
	if cfg.Fidelity == nil {
		return nil
	}
	return cfg.Fidelity.Levels
}

// canonicalModelName folds the empty name into the explicit default so a
// checkpoint written before the model field existed resumes under an
// explicit {"name": "exact"} spec, and vice versa.
func canonicalModelName(name string) string {
	if name == "" {
		return engine.ModelExact
	}
	return name
}

// resumeCampaign reconstructs the exact mid-campaign state from a
// checkpoint: surrogates by replaying the feed log (the GP hot path is
// bitwise deterministic, so replay lands on the identical model), the
// candidate pool by filtering the grid against executed configurations, the
// policy RNG by skipping the recorded draw count, and the lab's own counters
// via faults.Resumable. ck is the journal folded by readCheckpoint. The
// campaign's journal mark starts empty, so its first save writes a fresh
// snapshot of the whole state, replacing the journal it resumed from —
// a torn last line included.
func resumeCampaign(lab engine.Lab, cfg Config, ck *checkpointFile) (*campaign, error) {
	sp := obs.SpanCheckpointRestore.Start()
	defer sp.End()
	c := newCampaign(lab, cfg)
	c.res = ck.Result
	c.res.Reason = engine.StopMaxIterations
	c.feeds = ck.Feeds
	c.initLen = ck.InitLen
	c.cumCost = ck.CumCost
	c.cumRegret = ck.CumRegret

	var err error
	c.gpCost, c.gpMem, err = fitFromFeeds(cfg, c.feeds[:c.initLen])
	if err != nil {
		return nil, fmt.Errorf("online: replaying init fit: %w", err)
	}
	for _, f := range c.feeds[c.initLen:] {
		if err := c.applyFeed(f); err != nil {
			return nil, fmt.Errorf("online: replaying feed log: %w", err)
		}
	}

	if len(ck.LabState) > 0 {
		r, ok := lab.(faults.Resumable)
		if !ok {
			return nil, errors.New("online: checkpoint carries lab state but the lab cannot restore it")
		}
		if err := r.RestoreLabState(ck.LabState); err != nil {
			return nil, fmt.Errorf("online: restoring lab state: %v: %w", err, ErrCheckpointCorrupt)
		}
	}

	c.src = stats.NewCountingSource(stats.SplitSeed(cfg.Seed, 0))
	c.src.Skip(ck.RNGDraws)
	c.rng = rand.New(c.src)

	// Freshly built caches rebuild through the forward solve from row 0,
	// which is bitwise identical to the incremental extension an
	// uninterrupted run performed — the resumed trajectory's scores, and
	// hence selections, match exactly.
	c.buildScorer()
	obs.CheckpointRestores.Inc()
	return c, nil
}
