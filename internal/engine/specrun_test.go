package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/obs"
)

// specRunDataset builds a small dataset with well-conditioned responses,
// mirroring the helper the online package uses for its spec tests.
func specRunDataset(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	combos := dataset.AllCombos()
	rng.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
	ds := &dataset.Dataset{}
	for _, c := range combos[:n] {
		wall := 2.0 * math.Pow(float64(c.Mx)/8, 1.5) * math.Pow(2, float64(c.MaxLevel-3)) *
			(1 + c.R0) / (0.3 + c.RhoIn)
		ds.Jobs = append(ds.Jobs, dataset.Job{
			P: c.P, Mx: c.Mx, MaxLevel: c.MaxLevel, R0: c.R0, RhoIn: c.RhoIn,
			WallSec: wall,
			CostNH:  wall * float64(c.P) / 3600,
			MemMB:   0.05 * float64(c.Mx*c.Mx) / 64 * math.Pow(2, float64(c.MaxLevel-3)) / math.Sqrt(float64(c.P)),
		})
	}
	return ds
}

func replayRunSpec(name string, iters int) CampaignSpec {
	return CampaignSpec{
		Version:       SpecVersion,
		Name:          name,
		Mode:          ModeReplay,
		Policy:        PolicySpec{Name: "maxsigma"},
		Seed:          11,
		MaxIterations: iters,
		Replay:        &ReplaySpec{NInit: 8, NTest: 20},
	}
}

// TestRunCampaignSpecReplayMatchesDirect: the mode-runner registry must
// execute a replay spec identically to the direct RunReplaySpec path.
func TestRunCampaignSpecReplayMatchesDirect(t *testing.T) {
	ds := specRunDataset(60, 3)
	spec := replayRunSpec("registry-replay", 6)

	direct, err := RunReplaySpec(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	viaRegistry, err := RunCampaignSpec(context.Background(), spec, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := viaRegistry.(*Trajectory)
	if !ok {
		t.Fatalf("replay runner returned %T, want *Trajectory", viaRegistry)
	}
	if !reflect.DeepEqual(direct, tr) {
		t.Fatalf("registry trajectory differs from direct run")
	}
}

// TestRunCampaignSpecUnknownMode: an unregistered mode must fail with the
// registered alternatives, matching the other registries' style.
func TestRunCampaignSpecUnknownMode(t *testing.T) {
	spec := replayRunSpec("bad-mode", 2)
	spec.Mode = "batch"
	_, err := RunCampaignSpec(context.Background(), spec, specRunDataset(40, 4), nil)
	if err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("unknown mode accepted: %v", err)
	}
}

// TestRunCampaignSpecCancelled: a cancelled context must end the trajectory
// with StopCancelled and partial results, not an error.
func TestRunCampaignSpecCancelled(t *testing.T) {
	ds := specRunDataset(60, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first round: zero selections
	v, err := RunCampaignSpec(ctx, replayRunSpec("cancelled", 10), ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := v.(*Trajectory)
	if tr.Reason != StopCancelled {
		t.Fatalf("reason = %s want %s", tr.Reason, StopCancelled)
	}
	if tr.Iterations() != 0 {
		t.Fatalf("cancelled-before-start trajectory performed %d selections", tr.Iterations())
	}
}

// TestSpecNeedsDataset pins the dataset-requirement rule the shared loader
// enforces.
func TestSpecNeedsDataset(t *testing.T) {
	onlineSpec := func(lab string, paperRule bool) CampaignSpec {
		return CampaignSpec{
			Version:           SpecVersion,
			Mode:              ModeOnline,
			Policy:            PolicySpec{Name: "rgma"},
			MemLimitPaperRule: paperRule,
			Online:            &OnlineSpec{Lab: LabSpec{Name: lab}},
		}
	}
	cases := []struct {
		name string
		spec CampaignSpec
		want bool
	}{
		{"replay mode", replayRunSpec("r", 1), true},
		{"online sim", onlineSpec("sim", false), false},
		{"online replay lab", onlineSpec("replay", false), true},
		{"online sim + paper rule", onlineSpec("sim", true), true},
	}
	for _, tc := range cases {
		if got := SpecNeedsDataset(tc.spec); got != tc.want {
			t.Errorf("%s: SpecNeedsDataset = %v want %v", tc.name, got, tc.want)
		}
	}
}

// TestLoadSpecForRun table-tests the shared -spec translation block the
// campaign binaries use: file errors, validation errors, the needs-dataset
// check, and the online lab-name check.
func TestLoadSpecForRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	csvPath := filepath.Join(dir, "ds.csv")
	if err := specRunDataset(40, 7).SaveFile(csvPath); err != nil {
		t.Fatal(err)
	}
	replayPath := write("replay.json",
		`{"version":1,"mode":"replay","policy":{"name":"maxsigma"},"replay":{"n_init":4}}`)
	// The "sim" lab lives in internal/online and is not registered in this
	// package's tests; stand in a stub lab to exercise the loader's
	// known-lab path without an import cycle.
	RegisterLab("specrun-test-lab", func(LabSpec, LabDeps) (Lab, error) {
		return nil, errors.New("stub lab: not constructible")
	})
	onlineSimPath := write("online-sim.json",
		`{"version":1,"mode":"online","policy":{"name":"maxsigma"},"online":{"lab":{"name":"specrun-test-lab"}}}`)
	badLabPath := write("bad-lab.json",
		`{"version":1,"mode":"online","policy":{"name":"maxsigma"},"online":{"lab":{"name":"slurm"}}}`)
	badPolicyPath := write("bad-policy.json",
		`{"version":1,"mode":"replay","policy":{"name":"entropy"},"replay":{"n_init":4}}`)

	cases := []struct {
		name     string
		specPath string
		dataPath string
		wantErr  string // "" = success
		wantDS   bool
	}{
		{"missing file", filepath.Join(dir, "nope.json"), "", "reading campaign spec", false},
		{"unknown policy", badPolicyPath, "", "unknown policy", false},
		{"unknown lab", badLabPath, "", "unknown lab", false},
		{"replay without data", replayPath, "", "needs the offline dataset", false},
		{"replay with data", replayPath, csvPath, "", true},
		{"online sim without data", onlineSimPath, "", "", false},
		{"online sim ignores data path", onlineSimPath, filepath.Join(dir, "no.csv"), "", false},
		{"bad data path", replayPath, filepath.Join(dir, "no.csv"), "loading dataset", false},
	}
	for _, tc := range cases {
		spec, ds, err := LoadSpecForRun(tc.specPath, tc.dataPath)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error: %v", tc.name, err)
			continue
		}
		if (ds != nil) != tc.wantDS {
			t.Errorf("%s: dataset presence = %v want %v", tc.name, ds != nil, tc.wantDS)
		}
		if spec.Version != SpecVersion {
			t.Errorf("%s: spec not loaded", tc.name)
		}
	}
}

// TestLabRegistered: the side-effect-free lab lookup must agree with the
// registry and report alternatives for unknown names.
func TestLabRegistered(t *testing.T) {
	if err := LabRegistered("replay"); err != nil {
		t.Fatalf("replay lab unknown: %v", err)
	}
	err := LabRegistered("slurm")
	if err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Fatalf("unknown lab error missing alternatives: %v", err)
	}
}

// TestCampaignResultObsInvariant: observability only counts; a replay
// campaign's result bytes are the same with the registry off and on, and
// the jitter counters are bound while it runs.
func TestCampaignResultObsInvariant(t *testing.T) {
	ds := specRunDataset(60, 5)
	spec := replayRunSpec("obs-invariant", 8)
	run := func() []byte {
		v, err := RunCampaignSpec(context.Background(), spec, ds, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	off := run()
	reg := obs.NewRegistry()
	obs.Enable(reg, nil)
	defer obs.Disable()
	on := run()
	if !bytes.Equal(off, on) {
		t.Fatal("the campaign's result bytes differ with observability on")
	}
	for _, name := range []string{obs.MetricCholJitterSteps, obs.MetricCholJitterFailed} {
		if _, ok := reg.CounterValue(name); !ok {
			t.Fatalf("%s is not bound while observability is on", name)
		}
	}
}
