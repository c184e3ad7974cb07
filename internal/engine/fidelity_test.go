package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"alamr/internal/dataset"
)

func TestFidelitySpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec FidelitySpec
		want string // substring of the error; "" = valid
	}{
		{"three-level ladder", FidelitySpec{Levels: []int{3, 4, 6}}, ""},
		{"full ladder", FidelitySpec{Levels: []int{3, 4, 5, 6}}, ""},
		{"single rung", FidelitySpec{Levels: []int{5}}, ""},
		{"empty", FidelitySpec{}, "at least one level"},
		{"off grid", FidelitySpec{Levels: []int{3, 7}}, "not on the maxlevel grid"},
		{"descending", FidelitySpec{Levels: []int{4, 3}}, "strictly ascending"},
		{"repeated", FidelitySpec{Levels: []int{4, 4}}, "strictly ascending"},
		{"negative init", FidelitySpec{Levels: []int{3, 6}, InitPerLevel: -1}, "init_per_level"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestFidelityScaledLadder(t *testing.T) {
	f := FidelitySpec{Levels: []int{3, 4, 6}}
	got := f.ScaledLadder()
	want := []float64{0, 1.0 / 3.0, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-15 {
			t.Fatalf("ScaledLadder = %v want %v", got, want)
		}
	}
	if f.TopLevel() != 6 {
		t.Fatalf("TopLevel = %d want 6", f.TopLevel())
	}
}

// TestFidelitySplit pins the fidelity-aware partition contract: Test is
// drawn from the top rung only, Init seeds every rung with the per-level
// count, and the partition covers the (filtered) dataset exactly once.
func TestFidelitySplit(t *testing.T) {
	f := &FidelitySpec{Levels: []int{3, 4, 6}, InitPerLevel: 4}
	full := synthDS(300, 7)
	ds := f.Filter(full)
	for _, j := range ds.Jobs {
		if j.MaxLevel == 5 {
			t.Fatal("Filter kept an off-ladder job")
		}
	}

	part, err := f.split(ds, 2 /* ignored: InitPerLevel wins */, 20, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Validate(ds.Len()); err != nil {
		t.Fatal(err)
	}
	if len(part.Test) != 20 {
		t.Fatalf("Test size = %d want 20", len(part.Test))
	}
	for _, i := range part.Test {
		if ds.Jobs[i].MaxLevel != 6 {
			t.Fatalf("Test job %d has maxlevel %d, want top rung 6", i, ds.Jobs[i].MaxLevel)
		}
	}
	initPer := map[int]int{}
	for _, i := range part.Init {
		initPer[ds.Jobs[i].MaxLevel]++
	}
	for _, l := range f.Levels {
		if initPer[l] != 4 {
			t.Fatalf("Init has %d jobs at maxlevel %d, want 4 (per-level seeding)", initPer[l], l)
		}
	}

	// Unfiltered dataset: the split refuses off-ladder jobs loudly.
	if _, err := f.split(full, 2, 20, rand.New(rand.NewSource(9))); err == nil ||
		!strings.Contains(err.Error(), "off the ladder") {
		t.Fatalf("unfiltered split: err = %v", err)
	}
}

// TestFidelitySplitDeterministic pins that equal seeds give equal partitions
// (the property checkpoint resume and golden reruns rely on).
func TestFidelitySplitDeterministic(t *testing.T) {
	f := &FidelitySpec{Levels: []int{3, 4, 6}, InitPerLevel: 3}
	ds := f.Filter(synthDS(250, 11))
	a, err := f.split(ds, 3, 15, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.split(ds, 3, 15, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range map[string][2][]int{
		"Test":   {a.Test, b.Test},
		"Init":   {a.Init, b.Init},
		"Active": {a.Active, b.Active},
	} {
		if len(s[0]) != len(s[1]) {
			t.Fatalf("%s: lengths differ", k)
		}
		for i := range s[0] {
			if s[0][i] != s[1][i] {
				t.Fatalf("%s[%d]: %d != %d", k, i, s[0][i], s[1][i])
			}
		}
	}
}

func TestCostPerInfoPolicy(t *testing.T) {
	c := &Candidates{
		MuCost:      []float64{0, 1, 0}, // candidate 1 is 10x more expensive
		SigmaCost:   []float64{1, 1, 1},
		MuMem:       []float64{0, 0, 0},
		SigmaMem:    []float64{0.1, 0.1, 0.1},
		MemLimitLog: math.Inf(1),
		Fid: &FidelityView{
			Level:   []int{0, 1, 1},
			TopGain: []float64{1, 4, 0.5},
		},
	}
	rng := rand.New(rand.NewSource(1))
	pick, err := CostPerInfo{}.Select(c, rng)
	if err != nil {
		t.Fatal(err)
	}
	// gains/cost: 1/1, 4/10, 0.5/1 → candidate 0 wins.
	if pick != 0 {
		t.Fatalf("pick = %d want 0", pick)
	}

	// Memory filter removes the winner; next-best satisfying candidate wins.
	c.MuMem = []float64{5, 0, 0}
	c.MemLimitLog = 1
	pick, err = CostPerInfo{}.Select(c, rng)
	if err != nil {
		t.Fatal(err)
	}
	if pick != 2 {
		t.Fatalf("pick with mem filter = %d want 2", pick)
	}

	// Everything over the limit → the loop's early-termination signal.
	c.MuMem = []float64{5, 5, 5}
	if _, err := (CostPerInfo{}).Select(c, rng); !errors.Is(err, ErrAllExceedLimit) {
		t.Fatalf("all over limit: err = %v", err)
	}

	// Without a fidelity view the policy refuses to score.
	c.MuMem = []float64{0, 0, 0}
	c.Fid = nil
	if _, err := (CostPerInfo{}).Select(c, rng); err == nil {
		t.Fatal("expected error without FidelityView")
	}
}

func TestFidelitySpecValidationInCampaignSpec(t *testing.T) {
	base := func() CampaignSpec {
		s := replaySpec("fid", "costperinfo", 1, 3, 10)
		s.Fidelity = &FidelitySpec{Levels: []int{3, 4, 6}}
		return s
	}
	if err := func() error { s := base(); return s.Validate() }(); err != nil {
		t.Fatalf("valid fidelity spec rejected: %v", err)
	}

	s := base()
	s.Fidelity = nil
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "fidelity") {
		t.Fatalf("costperinfo without fidelity: err = %v", err)
	}

	s = base()
	s.Model = &ModelSpec{Name: ModelTreed}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "multifid") {
		t.Fatalf("fidelity with treed model: err = %v", err)
	}

	s = replaySpec("mf", "rgma", 1, 3, 10)
	s.Model = &ModelSpec{Name: ModelMultiFid}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "fidelity") {
		t.Fatalf("multifid model without fidelity: err = %v", err)
	}

	s = base()
	s.Replay.Batch = &BatchSelectSpec{Q: 2}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "batch") {
		t.Fatalf("fidelity with batch: err = %v", err)
	}

	s = base()
	s.Kernel = &KernelSpec{Name: "ard-rbf", LengthScales: []float64{0.5, 0.5, 0.5, 0.5, 0.5}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "length_scales") {
		t.Fatalf("fidelity with 5-dim ard-rbf: err = %v", err)
	}
	s.Kernel.LengthScales = []float64{0.5, 0.5, 0.5, 0.5}
	if err := s.Validate(); err != nil {
		t.Fatalf("fidelity with 4-dim ard-rbf rejected: %v", err)
	}
}

// TestReplayFidelityEndToEnd drives a 3-level replay campaign through
// RunCampaignSpec: the default surrogate becomes the co-kriging model, the
// cost-per-information policy consumes per-candidate gains, and the
// trajectory records each selection's ladder level.
func TestReplayFidelityEndToEnd(t *testing.T) {
	ds := synthDS(400, 21)
	spec := replaySpec("fid-e2e", "costperinfo", 5, 3, 20)
	spec.Replay.NTest = 25
	spec.Fidelity = &FidelitySpec{Levels: []int{3, 4, 6}, InitPerLevel: 3}

	res, err := RunCampaignSpec(nil, spec, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.(*Trajectory)
	if tr.Iterations() != 20 {
		t.Fatalf("iterations = %d want 20", tr.Iterations())
	}
	if len(tr.SelectedLevel) != tr.Iterations() {
		t.Fatalf("SelectedLevel has %d entries for %d selections", len(tr.SelectedLevel), tr.Iterations())
	}
	for i, lv := range tr.SelectedLevel {
		if lv < 0 || lv > 2 {
			t.Fatalf("SelectedLevel[%d] = %d outside ladder", i, lv)
		}
	}
	// Selected indices refer to the filtered dataset; every selected job
	// must sit on the ladder and match its recorded level.
	fds := spec.Fidelity.Filter(ds)
	for i, sel := range tr.Selected {
		if want := spec.Fidelity.LevelOf(fds.Jobs[sel].MaxLevel); tr.SelectedLevel[i] != want {
			t.Fatalf("selection %d: recorded level %d, job says %d", i, tr.SelectedLevel[i], want)
		}
	}
	// The whole point of cost-per-information: the campaign spends cheap
	// rungs, so not every selection is top-fidelity.
	low := 0
	for _, lv := range tr.SelectedLevel {
		if lv < 2 {
			low++
		}
	}
	if low == 0 {
		t.Fatal("cost-per-information never selected a low-fidelity candidate")
	}
}

// TestReplayFidelityDeterministic pins run-to-run determinism of the whole
// multi-fidelity replay path (selection order and recorded levels).
func TestReplayFidelityDeterministic(t *testing.T) {
	ds := synthDS(300, 33)
	spec := replaySpec("fid-det", "costperinfo", 9, 2, 12)
	spec.Replay.NTest = 20
	spec.Fidelity = &FidelitySpec{Levels: []int{3, 5, 6}, InitPerLevel: 2}

	run := func() *Trajectory {
		res, err := RunCampaignSpec(nil, spec, ds, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.(*Trajectory)
	}
	a, b := run(), run()
	if len(a.Selected) != len(b.Selected) {
		t.Fatalf("runs differ in length: %d vs %d", len(a.Selected), len(b.Selected))
	}
	for i := range a.Selected {
		if a.Selected[i] != b.Selected[i] || a.SelectedLevel[i] != b.SelectedLevel[i] {
			t.Fatalf("selection %d differs: (%d,%d) vs (%d,%d)",
				i, a.Selected[i], a.SelectedLevel[i], b.Selected[i], b.SelectedLevel[i])
		}
	}
	for i := range a.CostRMSE {
		if a.CostRMSE[i] != b.CostRMSE[i] {
			t.Fatalf("CostRMSE[%d] differs: %v vs %v", i, a.CostRMSE[i], b.CostRMSE[i])
		}
	}
}

// TestFidelitySmoke is the 2-level replay grid `make fidelity-smoke` runs
// under the race detector: two seeds x {2-level co-kriging campaign,
// single-fidelity baseline} through the concurrent sweep engine. The
// multi-fidelity runs must record an on-ladder level per selection; the
// baselines must stay level-free.
func TestFidelitySmoke(t *testing.T) {
	ds := synthDS(200, 61)
	var specs []CampaignSpec
	for _, seed := range []int64{1, 2} {
		fid := replaySpec(fmt.Sprintf("fid-smoke/mf/%d", seed), "costperinfo", seed, 4, 6)
		fid.Replay.NTest = 25
		fid.Fidelity = &FidelitySpec{Levels: []int{3, 6}, InitPerLevel: 2}
		base := replaySpec(fmt.Sprintf("fid-smoke/sf/%d", seed), "rgma", seed, 4, 6)
		base.Replay.NTest = 25
		specs = append(specs, fid, base)
	}
	trs, err := SweepReplaySpecs(ds, specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range trs {
		if tr == nil || tr.Iterations() != 6 {
			t.Fatalf("campaign %s: trajectory %+v, want 6 iterations", specs[i].Name, tr)
		}
		if specs[i].Fidelity == nil {
			if tr.SelectedLevel != nil {
				t.Fatalf("campaign %s: single-fidelity trajectory grew levels %v", specs[i].Name, tr.SelectedLevel)
			}
			continue
		}
		if len(tr.SelectedLevel) != tr.Iterations() {
			t.Fatalf("campaign %s: %d levels for %d selections", specs[i].Name, len(tr.SelectedLevel), tr.Iterations())
		}
		for j, lv := range tr.SelectedLevel {
			if lv < 0 || lv >= len(specs[i].Fidelity.Levels) {
				t.Fatalf("campaign %s: SelectedLevel[%d] = %d off the 2-rung ladder", specs[i].Name, j, lv)
			}
		}
	}
}

// TestSingleFidelityTrajectoryJSONUnchanged pins the golden-compatibility
// contract: a single-fidelity trajectory serializes without any
// SelectedLevel key, byte-identically to the pre-fidelity schema.
func TestSingleFidelityTrajectoryJSONUnchanged(t *testing.T) {
	ds := synthDS(120, 3)
	spec := replaySpec("plain", "rgma", 2, 5, 8)
	res, err := RunCampaignSpec(nil, spec, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := res.(*Trajectory).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "SelectedLevel") {
		t.Fatal("single-fidelity trajectory JSON grew a SelectedLevel key")
	}
}

// TestReplayLabErrNotInPool is the table test for the typed absent-feed
// error: present and removed configurations serve jobs, absent ones report
// ErrNotInPool (classifiable with errors.Is).
func TestReplayLabErrNotInPool(t *testing.T) {
	ds := synthDS(60, 17)
	lab := NewReplayLab(ds)
	present := ds.Jobs[0].Config()
	removed := ds.Jobs[1].Config()
	lab.Remove(removed)

	cases := []struct {
		name    string
		combo   dataset.Combo
		wantErr bool
	}{
		{"present", present, false},
		{"removed stays runnable", removed, false},
		{"absent", dataset.Combo{P: 9999, Mx: 8, MaxLevel: 3, R0: 0.2, RhoIn: 0.02}, true},
		{"zero combo", dataset.Combo{}, true},
	}
	for _, tc := range cases {
		_, err := lab.Run(tc.combo)
		if !tc.wantErr {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, ErrNotInPool) {
			t.Errorf("%s: err = %v, want ErrNotInPool", tc.name, err)
		}
	}
}
