package engine

import (
	"encoding/json"
	"io"

	"alamr/internal/gp"
	"alamr/internal/kernel"
)

// LoopConfig configures one active-learning trajectory (Algorithm 1).
type LoopConfig struct {
	Policy Policy
	// Kernel is the covariance prototype for both surrogates (default
	// isotropic RBF with ℓ=0.5, σ_f=1 on the unit-cube features).
	Kernel kernel.Kernel
	// GP carries the surrogate configuration; zero value uses sensible
	// defaults (optimized noise starting at 0.1, normalized targets).
	GP gp.Config
	// MemLimitMB is the maximum allowed memory usage L_mem in MB; 0
	// disables memory awareness entirely. When set, regret is recorded
	// against this limit for every policy, and memory-aware policies filter
	// candidates by it.
	MemLimitMB float64
	// MaxIterations bounds the number of AL selections (0 = exhaust the
	// Active pool).
	MaxIterations int
	// HyperoptEvery re-optimizes hyperparameters every k-th iteration
	// (default 10); other iterations use the O(n²) incremental update. Set
	// to 1 to refit every iteration exactly as the paper's Algorithm 1.
	HyperoptEvery int
	// Seed drives the policy's randomness.
	Seed int64
	// Log2P selects the log2(p) feature transform (paper §V-D).
	Log2P bool
	// Stable optionally enables the stabilizing-predictions stopping
	// heuristic (paper §V-D, third discussion point).
	Stable *StableStopConfig
	// Model selects the surrogate family from the model registry ("exact",
	// "sparse", "treed"); nil means the exact GP, preserving the historical
	// default exactly.
	Model *ModelSpec
	// NewModel overrides the surrogate constructor entirely (it wins over
	// Model). Use for custom gp.Model implementations not in the registry.
	NewModel func() gp.Model
	// Fidelity turns the loop multi-fidelity: the partition is expected to
	// span the declared MaxLevel ladder, the default surrogate becomes the
	// co-kriging "multifid" model, candidate sets carry a FidelityView, and
	// selections record their ladder level. Nil preserves the
	// single-fidelity code paths exactly.
	Fidelity *FidelitySpec
	// Pool optionally replaces the materialized candidate pool with the
	// streamed/sharded top-k pool: candidates are scored shard by shard
	// into a bounded shortlist, so peak pool memory is O(shard + k)
	// instead of O(m). The streamed pool serves maxsigma only.
	Pool *PoolSpec
	// Campaign optionally attaches per-campaign labeled instruments so
	// concurrent sweeps keep separable metric series; nil records into the
	// shared campaign gauges only.
	Campaign *CampaignObs
	// Stop optionally requests cooperative cancellation: it is polled at
	// every round boundary and a true return ends the trajectory with
	// StopCancelled (partial results intact, no error).
	Stop func() bool
}

// newModel builds one surrogate instance: the NewModel override, else
// NewSurrogate.
func (c *LoopConfig) newModel() (gp.Model, error) {
	if c.NewModel != nil {
		return c.NewModel(), nil
	}
	return NewSurrogate(c.Model, ModelDeps{Kernel: c.Kernel, GP: c.GP, Fidelity: c.Fidelity})
}

func (c *LoopConfig) setDefaults() {
	if c.Kernel == nil {
		c.Kernel = kernel.NewRBF(0.5, 1)
	}
	if c.GP.Noise == 0 {
		c.GP.Noise = 0.1
	}
	c.GP.NormalizeY = true
	if c.HyperoptEvery <= 0 {
		c.HyperoptEvery = 10
	}
}

// StableStopConfig stops the loop once predictions on the Test partition
// have stabilized: when the mean absolute change of consecutive predictions
// stays below Tol for Window consecutive iterations.
type StableStopConfig struct {
	Window int     `json:"window,omitempty"` // consecutive stable iterations required (default 5)
	Tol    float64 `json:"tol,omitempty"`    // mean |Δμ| threshold in log10 space (default 0.005)
}

func (s *StableStopConfig) setDefaults() {
	if s.Window <= 0 {
		s.Window = 5
	}
	if s.Tol <= 0 {
		s.Tol = 0.005
	}
}

// StopReason records why a trajectory ended.
type StopReason string

// Stop reasons.
const (
	StopPoolExhausted StopReason = "pool-exhausted"
	StopMaxIterations StopReason = "max-iterations"
	StopMemoryLimit   StopReason = "all-exceed-memory-limit"
	StopStable        StopReason = "stable-predictions"
	StopBudget        StopReason = "budget-exhausted"
	// StopFault ends a campaign that hit a fatal (unclassifiable) lab error
	// or spent a job's whole retry budget; partial results are returned
	// alongside the error.
	StopFault StopReason = "fatal-fault"
	// StopCancelled ends a campaign whose caller asked it to stop (see
	// LoopParams.Stop) — e.g. a DELETE against a running al-serve campaign.
	// The partial result is returned without an error; the loop stops at the
	// next round boundary, after the in-flight experiment completes.
	StopCancelled StopReason = "cancelled"
)

// Trajectory records everything the evaluation needs about one AL run: the
// selection order and the per-iteration metrics of §V-B.
type Trajectory struct {
	Policy string
	NInit  int
	Seed   int64

	// Selected holds dataset indices in selection order.
	Selected []int
	// SelectedCost/SelectedMem are the actual (non-log) responses of the
	// selected jobs, in order.
	SelectedCost []float64
	SelectedMem  []float64
	// SelectedLevel holds each selection's fidelity ladder index
	// (multi-fidelity campaigns only; omitted — and absent from the JSON —
	// in single-fidelity runs, so historical goldens stay byte-identical).
	SelectedLevel []int `json:"SelectedLevel,omitempty"`

	// Per-iteration metrics, recorded after the models absorb iteration i.
	CostRMSE  []float64 // non-log RMSE on the Test partition
	MemRMSE   []float64
	CumCost   []float64 // CC: running sum of selected actual costs
	CumRegret []float64 // CR: running sum of costs of limit-violating picks
	Violation []bool    // whether pick i violated the memory limit

	// InitCostRMSE / InitMemRMSE are the test errors after the initial fit,
	// before any AL selection.
	InitCostRMSE, InitMemRMSE float64

	Reason StopReason
	// FinalHyperCost / FinalHyperMem are the models' log-space
	// hyperparameters at the end of the run.
	FinalHyperCost, FinalHyperMem []float64
}

// Iterations returns the number of AL selections performed.
func (t *Trajectory) Iterations() int { return len(t.Selected) }

// WriteJSON serializes the trajectory for later aggregation.
func (t *Trajectory) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}
