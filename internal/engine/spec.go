package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"alamr/internal/dataset"
	"alamr/internal/stats"
)

// SpecVersion is the current CampaignSpec schema version. Specs carry their
// version explicitly so stored campaign files stay decodable across schema
// changes.
const SpecVersion = 1

// Campaign modes.
const (
	ModeReplay = "replay"
	ModeOnline = "online"
)

// CampaignSpec is the declarative description of one campaign: everything
// RunReplaySpec (or online.RunSpec) needs, as plain data. Specs are
// validated, versioned, and byte-stable under marshal→unmarshal→marshal, so
// they serve as both command-line input (-spec file.json) and provenance
// records of what actually ran.
type CampaignSpec struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
	// Mode selects the execution environment: ModeReplay runs against the
	// offline dataset, ModeOnline against a registered lab.
	Mode   string      `json:"mode"`
	Policy PolicySpec  `json:"policy"`
	Kernel *KernelSpec `json:"kernel,omitempty"`
	// Model selects the surrogate family ("exact", "sparse", "treed");
	// omitted means the exact GP, so every historical spec keeps its
	// behavior (and its goldens) unchanged.
	Model *ModelSpec `json:"model,omitempty"`
	Seed  int64      `json:"seed,omitempty"`
	// MemLimitMB sets L_mem directly; MemLimitPaperRule derives it from the
	// dataset with the paper's 95%-of-max rule instead. At most one of the
	// two may be set; neither disables memory awareness.
	MemLimitMB        float64 `json:"mem_limit_mb,omitempty"`
	MemLimitPaperRule bool    `json:"mem_limit_paper_rule,omitempty"`
	HyperoptEvery     int     `json:"hyperopt_every,omitempty"`
	MaxIterations     int     `json:"max_iterations,omitempty"`
	Log2P             bool    `json:"log2p,omitempty"`
	// Fidelity turns the campaign multi-fidelity: candidates become
	// (point, fidelity) pairs over the declared MaxLevel ladder, the
	// surrogates become co-kriging models ("multifid", the default model
	// when this section is present), and cost-per-information acquisition
	// becomes available. Omitted means single-fidelity — the exact
	// historical code paths.
	Fidelity *FidelitySpec `json:"fidelity,omitempty"`

	Replay *ReplaySpec `json:"replay,omitempty"`
	Online *OnlineSpec `json:"online,omitempty"`
}

// PolicySpec names a registered policy plus its tunables.
type PolicySpec struct {
	Name string `json:"name"`
	// Base is the goodness base of randgoodness/rgma (default 10).
	Base float64 `json:"base,omitempty"`
	// Xi is the exploration margin of expectedimprovement (default 0.01).
	Xi float64 `json:"xi,omitempty"`
}

// KernelSpec names a registered kernel plus its hyperparameter seeds.
type KernelSpec struct {
	Name         string    `json:"name"`
	LengthScale  float64   `json:"length_scale,omitempty"`
	Amplitude    float64   `json:"amplitude,omitempty"`
	LengthScales []float64 `json:"length_scales,omitempty"` // ard-rbf only
}

// ReplaySpec holds the replay-mode parameters.
type ReplaySpec struct {
	NInit int `json:"n_init"`
	NTest int `json:"n_test,omitempty"` // default 200
	// PartitionSeed seeds the Init/Active/Test split (default: the
	// campaign Seed).
	PartitionSeed int64             `json:"partition_seed,omitempty"`
	Stable        *StableStopConfig `json:"stable,omitempty"`
	Batch         *BatchSelectSpec  `json:"batch,omitempty"`
}

// BatchSelectSpec enables q-batch selection in replay mode.
type BatchSelectSpec struct {
	Q        int    `json:"q"`
	Strategy string `json:"strategy,omitempty"` // default "independent"
}

// LabSpec names a registered lab plus its construction parameters.
type LabSpec struct {
	Name     string  `json:"name"`
	RefNx    int     `json:"ref_nx,omitempty"`
	RefTEnd  float64 `json:"ref_t_end,omitempty"`
	RefSnaps int     `json:"ref_snaps,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	// Remote-lab ("remote") parameters: the TCP address the dispatcher
	// listens on for al-worker connections ("127.0.0.1:0" picks a free
	// port), how many workers must connect before the campaign starts, the
	// heartbeat deadline after which a silent worker is declared lost, and
	// how long a dispatch waits for any live worker before charging a
	// retryable fault.
	Listen       string  `json:"listen,omitempty"`
	MinWorkers   int     `json:"min_workers,omitempty"`
	HeartbeatSec float64 `json:"heartbeat_sec,omitempty"`
	WaitSec      float64 `json:"wait_sec,omitempty"`
	// RSSLimitMB makes the remote fleet enforce an OOM kill threshold:
	// workers report jobs whose MaxRSS reaches it as censored observations.
	RSSLimitMB float64 `json:"rss_limit_mb,omitempty"`
}

// OnlineSpec holds the online-mode parameters.
type OnlineSpec struct {
	Lab             LabSpec         `json:"lab"`
	MaxExperiments  int             `json:"max_experiments,omitempty"`
	Budget          float64         `json:"budget,omitempty"`
	MaxAttempts     int             `json:"max_attempts,omitempty"`
	CheckpointPath  string          `json:"checkpoint_path,omitempty"`
	CheckpointEvery int             `json:"checkpoint_every,omitempty"`
	InitDesign      []dataset.Combo `json:"init_design,omitempty"`
}

// Validate checks the spec's structure and that every name it references is
// registered (lab names are deferred to BuildLab, since labs register from
// higher layers).
func (s *CampaignSpec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("engine: spec version %d, this build understands %d", s.Version, SpecVersion)
	}
	switch s.Mode {
	case ModeReplay:
		if s.Replay == nil {
			return fmt.Errorf("engine: replay spec needs a %q section", "replay")
		}
		if s.Online != nil {
			return fmt.Errorf("engine: replay spec must not carry an %q section", "online")
		}
		if s.Replay.NInit < 1 {
			return fmt.Errorf("engine: replay spec needs n_init >= 1, got %d", s.Replay.NInit)
		}
		if b := s.Replay.Batch; b != nil {
			if b.Q < 1 {
				return fmt.Errorf("engine: batch spec needs q >= 1, got %d", b.Q)
			}
			if b.Strategy != "" {
				if _, err := BuildStrategy(b.Strategy); err != nil {
					return err
				}
			}
		}
	case ModeOnline:
		if s.Online == nil {
			return fmt.Errorf("engine: online spec needs an %q section", "online")
		}
		if s.Replay != nil {
			return fmt.Errorf("engine: online spec must not carry a %q section", "replay")
		}
		if s.Online.Lab.Name == "" {
			return fmt.Errorf("engine: online spec needs a lab name")
		}
	default:
		return fmt.Errorf("engine: unknown mode %q (want %q or %q)", s.Mode, ModeReplay, ModeOnline)
	}
	if _, err := BuildPolicy(s.Policy); err != nil {
		return err
	}
	if s.Kernel != nil {
		if _, err := BuildKernel(*s.Kernel); err != nil {
			return err
		}
	}
	if s.Model != nil {
		if err := validateModelSpec(s.Model); err != nil {
			return err
		}
	}
	if s.Fidelity != nil {
		if err := s.Fidelity.Validate(); err != nil {
			return err
		}
		if s.Model != nil && s.Model.Name != "" && normName(s.Model.Name) != ModelMultiFid {
			return fmt.Errorf("engine: fidelity campaigns need the %q model, got %q", ModelMultiFid, s.Model.Name)
		}
		if s.Mode == ModeReplay && s.Replay.Batch != nil {
			return fmt.Errorf("engine: fidelity campaigns do not support batch selection")
		}
		if s.Kernel != nil && normName(s.Kernel.Name) == "ard-rbf" && len(s.Kernel.LengthScales) != dataset.NumFeatures-1 {
			return fmt.Errorf("engine: fidelity surrogates strip the fidelity column: ard-rbf needs %d length_scales, got %d",
				dataset.NumFeatures-1, len(s.Kernel.LengthScales))
		}
	} else {
		if s.Model != nil && normName(s.Model.Name) == ModelMultiFid {
			return fmt.Errorf("engine: model %q needs a %q section", ModelMultiFid, "fidelity")
		}
		if isCostPerInfo(s.Policy.Name) {
			return fmt.Errorf("engine: policy %q needs a %q section", s.Policy.Name, "fidelity")
		}
	}
	if s.MemLimitMB < 0 {
		return fmt.Errorf("engine: mem_limit_mb must be >= 0, got %g", s.MemLimitMB)
	}
	if s.MemLimitMB > 0 && s.MemLimitPaperRule {
		return fmt.Errorf("engine: mem_limit_mb and mem_limit_paper_rule are mutually exclusive")
	}
	return nil
}

// ParseCampaignSpec decodes and validates a spec. Unknown fields are
// rejected so typos fail loudly instead of silently running defaults.
func ParseCampaignSpec(data []byte) (CampaignSpec, error) {
	var s CampaignSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return CampaignSpec{}, fmt.Errorf("engine: decoding campaign spec: %w", err)
	}
	// An empty list means what an omitted one does. Decode it as omitted,
	// so a spec and its canonical form (which omits it) parse alike.
	if s.Kernel != nil && len(s.Kernel.LengthScales) == 0 {
		s.Kernel.LengthScales = nil
	}
	if s.Online != nil && len(s.Online.InitDesign) == 0 {
		s.Online.InitDesign = nil
	}
	if err := s.Validate(); err != nil {
		return CampaignSpec{}, err
	}
	return s, nil
}

// LoadCampaignSpec reads and validates a spec file.
func LoadCampaignSpec(path string) (CampaignSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return CampaignSpec{}, fmt.Errorf("engine: reading campaign spec: %w", err)
	}
	return ParseCampaignSpec(data)
}

// Marshal serializes the spec in the canonical form (indented, trailing
// newline). Marshal∘Parse∘Marshal is byte-stable.
func (s *CampaignSpec) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("engine: encoding campaign spec: %w", err)
	}
	return append(data, '\n'), nil
}

// PaperMemLimitMB computes the memory limit the paper's evaluation uses:
// 95% of the largest log-transformed memory response. The transformation the
// paper's two stated equivalences are consistent with is log10 of the
// response in bytes, giving L_mem = (max bytes)^0.95 ≈ 42% of the largest
// raw response for Table I's dataset.
func PaperMemLimitMB(ds *dataset.Dataset) float64 {
	maxMB := stats.Max(ds.Mem(nil))
	maxBytes := maxMB * (1 << 20)
	return math.Pow(10, 0.95*math.Log10(maxBytes)) / (1 << 20)
}

// ReplayPlan materializes the partition and loop configuration a
// replay-mode spec describes against the dataset. Commands use it to report
// derived values (e.g. the paper-rule limit) before running.
func (s *CampaignSpec) ReplayPlan(ds *dataset.Dataset) (dataset.Partition, LoopConfig, error) {
	if err := s.Validate(); err != nil {
		return dataset.Partition{}, LoopConfig{}, err
	}
	if s.Mode != ModeReplay {
		return dataset.Partition{}, LoopConfig{}, fmt.Errorf("engine: ReplayPlan needs a replay spec, got mode %q", s.Mode)
	}
	r := s.Replay
	nTest := r.NTest
	if nTest <= 0 {
		nTest = 200
	}
	pseed := r.PartitionSeed
	if pseed == 0 {
		pseed = s.Seed
	}
	var part dataset.Partition
	var err error
	if s.Fidelity != nil {
		// Fidelity-aware split: Test drawn from the top rung only, Init
		// seeded per rung. The dataset must already be ladder-only (callers
		// filter with FidelitySpec.Filter; runReplaySpecCtx does this), so
		// Trajectory.Selected indices refer to the filtered dataset.
		part, err = s.Fidelity.split(ds, r.NInit, nTest, stats.NewRand(pseed))
	} else {
		part, err = dataset.Split(ds, r.NInit, nTest, stats.NewRand(pseed))
	}
	if err != nil {
		return dataset.Partition{}, LoopConfig{}, err
	}

	pol, err := BuildPolicy(s.Policy)
	if err != nil {
		return dataset.Partition{}, LoopConfig{}, err
	}
	cfg := LoopConfig{
		Policy:        pol,
		Seed:          s.Seed,
		MaxIterations: s.MaxIterations,
		HyperoptEvery: s.HyperoptEvery,
		Log2P:         s.Log2P,
		Model:         s.Model,
		Fidelity:      s.Fidelity,
	}
	if s.Kernel != nil {
		k, err := BuildKernel(*s.Kernel)
		if err != nil {
			return dataset.Partition{}, LoopConfig{}, err
		}
		cfg.Kernel = k
	}
	switch {
	case s.MemLimitPaperRule:
		cfg.MemLimitMB = PaperMemLimitMB(ds)
	case s.MemLimitMB > 0:
		cfg.MemLimitMB = s.MemLimitMB
	}
	if r.Stable != nil {
		// Copy: the loop writes defaults into the struct, and one spec may
		// be run many times (sweeps).
		st := *r.Stable
		cfg.Stable = &st
	}
	return part, cfg, nil
}

// RunReplaySpec materializes and executes a replay-mode campaign spec.
func RunReplaySpec(ds *dataset.Dataset, spec CampaignSpec) (*Trajectory, error) {
	return RunReplaySpecScoped(ds, spec, nil)
}

// RunReplaySpecScoped is RunReplaySpec with a per-campaign obs scope
// attached (Sweep passes each item's scope through here).
func RunReplaySpecScoped(ds *dataset.Dataset, spec CampaignSpec, scope *CampaignObs) (*Trajectory, error) {
	return runReplaySpecCtx(nil, ds, spec, scope)
}

// ReplaySpecItem wraps a replay spec as one sweep campaign. The item ID is
// the spec name (or the policy/seed pair when unnamed).
func ReplaySpecItem(ds *dataset.Dataset, spec CampaignSpec) SweepItem {
	id := spec.Name
	if id == "" {
		id = fmt.Sprintf("%s/seed=%d", spec.Policy.Name, spec.Seed)
	}
	return SweepItem{
		ID: id,
		Run: func(scope *CampaignObs) (any, error) {
			return RunReplaySpecScoped(ds, spec, scope)
		},
	}
}

// SweepReplaySpecs executes a grid of replay specs across the worker pool
// and returns the trajectories in spec order.
func SweepReplaySpecs(ds *dataset.Dataset, specs []CampaignSpec, workers int) ([]*Trajectory, error) {
	items := make([]SweepItem, len(specs))
	for i, spec := range specs {
		items[i] = ReplaySpecItem(ds, spec)
	}
	results, err := Sweep(SweepConfig{Workers: workers, Items: items})
	trs := make([]*Trajectory, len(results))
	for i, r := range results {
		if tr, ok := r.Value.(*Trajectory); ok {
			trs[i] = tr
		}
	}
	return trs, err
}
