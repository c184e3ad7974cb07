package engine

import (
	"fmt"
	"strings"

	"alamr/internal/dataset"
	"alamr/internal/gp"
	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// Surrogate model names built into the registry.
const (
	ModelExact    = "exact"
	ModelSparse   = "sparse"
	ModelTreed    = "treed"
	ModelMultiFid = "multifid"
)

// ModelSpec names a registered surrogate family plus its capacity knobs.
// The zero spec (and a nil *ModelSpec on CampaignSpec) means the exact GP —
// the default every pre-existing campaign file and golden runs under.
type ModelSpec struct {
	Name string `json:"name"`
	// Inducing is the sparse model's inducing-point budget k (default 64).
	// Scoring costs O(k²) per candidate direct or O(k) cached, so k bounds
	// the per-iteration cost independently of the training-set size n.
	Inducing int `json:"inducing,omitempty"`
	// LeafSize is the treed model's leaf capacity (default 64, minimum 8).
	LeafSize int `json:"leaf_size,omitempty"`
	// Rebalance is the treed model's re-split trigger factor: a leaf splits
	// once it exceeds rebalance×leaf_size rows (default 2, minimum 1).
	Rebalance int `json:"rebalance,omitempty"`
}

// ModelDeps carries the runtime inputs a model constructor needs beyond its
// spec: the covariance prototype, the per-surrogate GP configuration, and
// (for the co-kriging family) the campaign's fidelity ladder.
type ModelDeps struct {
	Kernel   kernel.Kernel
	GP       gp.Config
	Fidelity *FidelitySpec
}

var modelReg = map[string]func(ModelSpec, ModelDeps) (gp.Model, error){}

// RegisterModel adds (or replaces) a surrogate constructor under name.
func RegisterModel(name string, build func(ModelSpec, ModelDeps) (gp.Model, error)) {
	regMu.Lock()
	defer regMu.Unlock()
	modelReg[normName(name)] = build
}

// ModelNames lists the registered surrogate names, sorted.
func ModelNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return sortedKeys(modelReg)
}

// BuildModel constructs the surrogate a spec names. An empty name means
// ModelExact. Unknown names report the registered alternatives.
func BuildModel(s ModelSpec, deps ModelDeps) (gp.Model, error) {
	name := s.Name
	if name == "" {
		name = ModelExact
	}
	regMu.RLock()
	build, ok := modelReg[normName(name)]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown model %q (registered: %s)", s.Name, strings.Join(ModelNames(), ", "))
	}
	return build(s, deps)
}

// NewSurrogate builds one unfitted surrogate for a campaign of either mode:
// the registry entry spec names, or — with no spec — the co-kriging
// multifid model for a fidelity campaign (a plain GP cannot tell the
// ladder's rungs apart) and the exact GP otherwise.
func NewSurrogate(spec *ModelSpec, deps ModelDeps) (gp.Model, error) {
	switch {
	case spec != nil:
		return BuildModel(*spec, deps)
	case deps.Fidelity != nil:
		return BuildModel(ModelSpec{Name: ModelMultiFid}, deps)
	}
	return gp.New(deps.Kernel, deps.GP), nil
}

// validateModelSpec checks a spec's structure without constructing anything
// heavyweight (Validate must stay cheap and side-effect free).
func validateModelSpec(s *ModelSpec) error {
	regMu.RLock()
	_, ok := modelReg[normName(s.Name)]
	regMu.RUnlock()
	if s.Name != "" && !ok {
		return fmt.Errorf("engine: unknown model %q (registered: %s)", s.Name, strings.Join(ModelNames(), ", "))
	}
	if s.Inducing < 0 {
		return fmt.Errorf("engine: model inducing must be >= 0, got %d", s.Inducing)
	}
	if s.LeafSize < 0 {
		return fmt.Errorf("engine: model leaf_size must be >= 0, got %d", s.LeafSize)
	}
	if s.Rebalance < 0 {
		return fmt.Errorf("engine: model rebalance must be >= 0, got %d", s.Rebalance)
	}
	return nil
}

func init() {
	RegisterModel(ModelExact, func(_ ModelSpec, d ModelDeps) (gp.Model, error) {
		return gp.New(d.Kernel, d.GP), nil
	})
	RegisterModel(ModelSparse, func(s ModelSpec, d ModelDeps) (gp.Model, error) {
		k := s.Inducing
		if k <= 0 {
			k = 64
		}
		return gp.NewSparse(d.Kernel, d.GP, k), nil
	})
	RegisterModel(ModelTreed, func(s ModelSpec, d ModelDeps) (gp.Model, error) {
		leaf := s.LeafSize
		if leaf <= 0 {
			leaf = 64
		}
		t := gp.NewTreed(d.Kernel, d.GP, leaf)
		if s.Rebalance > 0 {
			t.SetRebalance(s.Rebalance)
		}
		return t, nil
	})
	RegisterModel(ModelMultiFid, func(_ ModelSpec, d ModelDeps) (gp.Model, error) {
		if d.Fidelity == nil {
			return nil, fmt.Errorf("engine: model %q needs a fidelity ladder (spec %q section)", ModelMultiFid, "fidelity")
		}
		return gp.NewMultiFid(d.Kernel, d.GP, gp.MultiFidConfig{
			Dim:    dataset.FidelityFeature,
			Ladder: d.Fidelity.ScaledLadder(),
		})
	})
}

// FitPair runs cost and mem, the fits or refits of a campaign's cost and
// memory surrogates, side by side as two bodies of mat.ParallelWorkers
// (under mat.SetWorkers(1) both run on the caller, cost first). It returns
// the cost error when there is one, else the memory error; a panic in
// either body is re-raised on the caller, cost's first.
//
// The two surrogates share no mutable state: each clones its kernel
// prototype and owns its training data and attached caches, and the shared
// prediction scratch is a sync.Pool. Their fits are therefore race-free
// and, by the mat determinism contract, bitwise identical to sequential
// fits. Custom LoopConfig.NewModel constructors must keep that property.
func FitPair(cost, mem func() error) error {
	bodies := [2]func() error{cost, mem}
	var errs [2]error
	var panics [2]any
	mat.ParallelWorkers(2, func(i int) {
		defer func() { panics[i] = recover() }()
		errs[i] = bodies[i]()
	})
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}
