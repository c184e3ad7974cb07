package engine

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"alamr/internal/gp"
	"alamr/internal/kernel"
)

func TestSpecRoundTripByteStable(t *testing.T) {
	specs := []CampaignSpec{
		{
			Version: SpecVersion, Name: "full-replay", Mode: ModeReplay,
			Policy:        PolicySpec{Name: "rgma", Base: 100},
			Kernel:        &KernelSpec{Name: "matern52", LengthScale: 0.4, Amplitude: 2},
			Seed:          9,
			MemLimitMB:    123.5,
			HyperoptEvery: 5, MaxIterations: 30, Log2P: true,
			Replay: &ReplaySpec{
				NInit: 10, NTest: 40, PartitionSeed: 3,
				Stable: &StableStopConfig{Window: 4, Tol: 0.01},
				Batch:  &BatchSelectSpec{Q: 3, Strategy: "constant-liar"},
			},
		},
		{
			Version: SpecVersion, Name: "streamed-sparse", Mode: ModeReplay,
			Policy: PolicySpec{Name: "maxsigma"},
			Model:  &ModelSpec{Name: "sparse", Inducing: 128},
			Seed:   4,
			Replay: &ReplaySpec{
				NInit: 20, NTest: 40,
				Pool: &PoolSpec{Shard: 8192, TopK: 32, Approx: true, RefreshEvery: 8},
			},
		},
		{
			Version: SpecVersion, Name: "treed-model", Mode: ModeReplay,
			Policy: PolicySpec{Name: "minpred"},
			Model:  &ModelSpec{Name: "treed", LeafSize: 256, Rebalance: 3},
			Replay: &ReplaySpec{NInit: 10, NTest: 40},
		},
		{
			Version: SpecVersion, Name: "fidelity-replay", Mode: ModeReplay,
			Policy:   PolicySpec{Name: "costperinfo"},
			Fidelity: &FidelitySpec{Levels: []int{3, 4, 6}, InitPerLevel: 5},
			Seed:     2,
			Replay:   &ReplaySpec{NInit: 15, NTest: 40},
		},
		{
			Version: SpecVersion, Name: "full-online", Mode: ModeOnline,
			Policy:            PolicySpec{Name: "ei", Xi: 0.05},
			MemLimitPaperRule: false, MemLimitMB: 2,
			Online: &OnlineSpec{
				Lab:            LabSpec{Name: "replay"},
				MaxExperiments: 12, Budget: 0.5, MaxAttempts: 4,
				CheckpointEvery: 2,
			},
		},
	}
	for _, spec := range specs {
		spec := spec
		first, err := spec.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseCampaignSpec(first)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		second, err := parsed.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: marshal -> parse -> marshal not byte-stable:\n%s\nvs\n%s", spec.Name, first, second)
		}
		if !reflect.DeepEqual(spec, parsed) {
			t.Fatalf("%s: parsed spec differs: %+v vs %+v", spec.Name, spec, parsed)
		}
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseCampaignSpec([]byte(`{"version":1,"mode":"replay","policy":{"name":"rgma"},"replay":{"n_init":5},"bogus":1}`))
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown field accepted: %v", err)
	}
}

func TestSpecValidateErrors(t *testing.T) {
	valid := func() CampaignSpec {
		return CampaignSpec{
			Version: SpecVersion, Mode: ModeReplay,
			Policy: PolicySpec{Name: "rgma"},
			Replay: &ReplaySpec{NInit: 5},
		}
	}
	cases := []struct {
		name   string
		mutate func(*CampaignSpec)
		want   string
	}{
		{"bad version", func(s *CampaignSpec) { s.Version = 2 }, "spec version 2"},
		{"bad mode", func(s *CampaignSpec) { s.Mode = "offline" }, "unknown mode"},
		{"missing replay section", func(s *CampaignSpec) { s.Replay = nil }, `needs a "replay" section`},
		{"conflicting sections", func(s *CampaignSpec) { s.Online = &OnlineSpec{Lab: LabSpec{Name: "sim"}} }, `must not carry an "online" section`},
		{"bad n_init", func(s *CampaignSpec) { s.Replay.NInit = 0 }, "n_init >= 1"},
		{"bad batch q", func(s *CampaignSpec) { s.Replay.Batch = &BatchSelectSpec{Q: 0} }, "q >= 1"},
		{"unknown strategy", func(s *CampaignSpec) { s.Replay.Batch = &BatchSelectSpec{Q: 2, Strategy: "psychic"} }, "unknown batch strategy"},
		{"unknown policy", func(s *CampaignSpec) { s.Policy.Name = "zigzag" }, `unknown policy "zigzag"`},
		{"unknown kernel", func(s *CampaignSpec) { s.Kernel = &KernelSpec{Name: "fourier"} }, `unknown kernel "fourier"`},
		{"negative limit", func(s *CampaignSpec) { s.MemLimitMB = -1 }, "mem_limit_mb must be >= 0"},
		{"conflicting limits", func(s *CampaignSpec) { s.MemLimitMB = 1; s.MemLimitPaperRule = true }, "mutually exclusive"},
		{"unknown model", func(s *CampaignSpec) { s.Model = &ModelSpec{Name: "oracle"} }, `unknown model "oracle"`},
		{"negative inducing", func(s *CampaignSpec) { s.Model = &ModelSpec{Name: "sparse", Inducing: -1} }, "inducing must be >= 0"},
		{"online without lab", func(s *CampaignSpec) {
			s.Mode = ModeOnline
			s.Replay = nil
			s.Online = &OnlineSpec{}
		}, "needs a lab name"},
	}
	for _, tc := range cases {
		s := valid()
		tc.mutate(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	s := valid()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestUnknownNamesListAlternatives: every registry's unknown-name error must
// name the registered alternatives so typos are self-diagnosing.
func TestUnknownNamesListAlternatives(t *testing.T) {
	if _, err := BuildPolicy(PolicySpec{Name: "zigzag"}); err == nil ||
		!strings.Contains(err.Error(), "registered:") || !strings.Contains(err.Error(), "rgma") {
		t.Fatalf("policy error lacks alternatives: %v", err)
	}
	if _, err := BuildKernel(KernelSpec{Name: "fourier"}); err == nil ||
		!strings.Contains(err.Error(), "registered:") || !strings.Contains(err.Error(), "rbf") {
		t.Fatalf("kernel error lacks alternatives: %v", err)
	}
	if _, err := BuildStrategy("psychic"); err == nil ||
		!strings.Contains(err.Error(), "registered:") || !strings.Contains(err.Error(), "constant-liar") {
		t.Fatalf("strategy error lacks alternatives: %v", err)
	}
	if _, err := BuildLab(LabSpec{Name: "marslab"}, LabDeps{}); err == nil ||
		!strings.Contains(err.Error(), "registered:") || !strings.Contains(err.Error(), "replay") {
		t.Fatalf("lab error lacks alternatives: %v", err)
	}
	if _, err := BuildModel(ModelSpec{Name: "oracle"}, ModelDeps{}); err == nil ||
		!strings.Contains(err.Error(), "registered:") || !strings.Contains(err.Error(), "sparse") {
		t.Fatalf("model error lacks alternatives: %v", err)
	}
}

// TestEveryRegistryEntryConstructible: each registered name must build from
// a plain spec (ard-rbf additionally needs its length scales, the replay lab
// its dataset).
func TestEveryRegistryEntryConstructible(t *testing.T) {
	for _, name := range PolicyNames() {
		if p, err := BuildPolicy(PolicySpec{Name: name}); err != nil || p == nil {
			t.Fatalf("policy %s: %v", name, err)
		}
	}
	for _, name := range KernelNames() {
		s := KernelSpec{Name: name}
		if name == "ard-rbf" {
			s.LengthScales = []float64{0.5, 0.5, 0.5, 0.5, 0.5}
		}
		if k, err := BuildKernel(s); err != nil || k == nil {
			t.Fatalf("kernel %s: %v", name, err)
		}
	}
	for _, name := range StrategyNames() {
		if _, err := BuildStrategy(name); err != nil {
			t.Fatalf("strategy %s: %v", name, err)
		}
	}
	ds := synthDS(20, 5)
	for _, name := range LabNames() {
		if l, err := BuildLab(LabSpec{Name: name}, LabDeps{Dataset: ds}); err != nil || l == nil {
			t.Fatalf("lab %s: %v", name, err)
		}
	}
	deps := ModelDeps{Kernel: kernel.NewRBF(0.5, 1), GP: gp.Config{Noise: 0.1}}
	for _, name := range ModelNames() {
		d := deps
		if name == ModelMultiFid {
			// The co-kriging family needs its fidelity ladder.
			d.Fidelity = &FidelitySpec{Levels: []int{3, 4, 6}}
		}
		if m, err := BuildModel(ModelSpec{Name: name}, d); err != nil || m == nil {
			t.Fatalf("model %s: %v", name, err)
		}
	}
}

// TestExampleSpecsValid keeps the shipped example specs loadable and in the
// canonical Marshal form, so the README quick-start cannot rot.
func TestExampleSpecsValid(t *testing.T) {
	paths, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example specs found under examples/specs/")
	}
	for _, p := range paths {
		spec, err := LoadCampaignSpec(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := spec.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, canon) {
			t.Errorf("%s is not in canonical spec form; want:\n%s", p, canon)
		}
	}
}

// TestRunReplaySpecMatchesDirect: executing through the spec layer must be
// the identical campaign as materializing the plan and calling RunReplay.
func TestRunReplaySpecMatchesDirect(t *testing.T) {
	ds := synthDS(130, 54)
	spec := replaySpec("direct-vs-spec", "rgma", 11, 12, 8)
	spec.MemLimitPaperRule = true

	viaSpec, err := RunReplaySpec(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	part, cfg, err := spec.ReplayPlan(ds)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunReplay(ds, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaSpec, direct) {
		t.Fatal("spec-layer trajectory differs from the direct engine call")
	}
}
