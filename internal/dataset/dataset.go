// Package dataset defines the AMR performance dataset the active-learning
// study runs on: 600 shock-bubble jobs over the paper's 5-dimensional
// feature grid (Table I), the log10 response transforms, unit-cube feature
// scaling, Init/Active/Test partitioning, and CSV persistence.
package dataset

import (
	"errors"
	"fmt"
	"math"

	"alamr/internal/mat"
)

// ErrBadResponse classifies a job whose measured responses cannot enter the
// log-transformed models: zero, negative, or non-finite wall-clock, cost, or
// memory values. Callers that feed measurements into the GPs (the AL loops,
// the online campaign runtime) check for it with errors.Is and treat it as a
// corrupted measurement rather than letting log10 propagate NaN/Inf into a
// surrogate.
var ErrBadResponse = errors.New("dataset: non-positive or non-finite response")

// CheckResponses verifies that the job's measured responses are strictly
// positive and finite — the precondition of the log10 transforms LogCost and
// LogMem. A violation is reported as an error wrapping ErrBadResponse.
func (j Job) CheckResponses() error {
	switch {
	case badResponse(j.WallSec):
		return fmt.Errorf("%w: wall-clock %g sec (%+v)", ErrBadResponse, j.WallSec, j.Config())
	case badResponse(j.CostNH):
		return fmt.Errorf("%w: cost %g node-hours (%+v)", ErrBadResponse, j.CostNH, j.Config())
	case badResponse(j.MemMB):
		return fmt.Errorf("%w: memory %g MB (%+v)", ErrBadResponse, j.MemMB, j.Config())
	}
	return nil
}

// badResponse reports whether v cannot enter a log10 transform.
func badResponse(v float64) bool {
	return v <= 0 || math.IsNaN(v) || math.IsInf(v, 0)
}

// CheckResponses verifies every indexed job (all jobs when idx is nil)
// satisfies the log-transform precondition; see Job.CheckResponses. It
// reads the jobs in place and builds an error only for the first bad one.
func (d *Dataset) CheckResponses(idx []int) error {
	n := len(idx)
	if idx == nil {
		n = len(d.Jobs)
	}
	for r := 0; r < n; r++ {
		i := r
		if idx != nil {
			i = idx[r]
		}
		if j := &d.Jobs[i]; badResponse(j.WallSec) || badResponse(j.CostNH) || badResponse(j.MemMB) {
			return fmt.Errorf("job %d: %w", i, j.CheckResponses())
		}
	}
	return nil
}

// Feature grids from the paper (Table I): 5·4·4·4·6 = 1920 combinations.
var (
	GridP        = []int{4, 8, 16, 24, 32}
	GridMx       = []int{8, 16, 24, 32}
	GridMaxLevel = []int{3, 4, 5, 6}
	GridR0       = []float64{0.2, 0.3, 0.4, 0.5}
	GridRhoIn    = []float64{0.02, 0.05, 0.1, 0.2, 0.35, 0.5}
)

// NumFeatures is the input-space dimension d.
const NumFeatures = 5

// FidelityFeature is the index of the fidelity dial — the AMR refinement
// depth MaxLevel — in the (scaled) feature vector. Multi-fidelity campaigns
// treat this column as the rung of a fidelity ladder rather than an
// ordinary design dimension.
const FidelityFeature = 2

// ScaleMaxLevel maps a MaxLevel grid value onto the unit-scaled feature
// axis the surrogates see (the FidelityFeature column of ScaleFeatures).
func ScaleMaxLevel(ml int) float64 {
	lo := float64(GridMaxLevel[0])
	hi := float64(GridMaxLevel[len(GridMaxLevel)-1])
	return (float64(ml) - lo) / (hi - lo)
}

// Job is one completed AMR simulation: the five features the paper sweeps
// and the measured responses.
type Job struct {
	P        int     // number of nodes
	Mx       int     // box size (cells per patch edge)
	MaxLevel int     // maximum refinement level
	R0       float64 // bubble size
	RhoIn    float64 // bubble density

	WallSec float64 // wall-clock seconds
	CostNH  float64 // cost in node-hours (wall × nodes / 3600)
	MemMB   float64 // MaxRSS per process, MB
}

// Config returns the job's feature combination.
func (j Job) Config() Combo {
	return Combo{P: j.P, Mx: j.Mx, MaxLevel: j.MaxLevel, R0: j.R0, RhoIn: j.RhoIn}
}

// Combo is a point of the feature grid.
type Combo struct {
	P, Mx, MaxLevel int
	R0, RhoIn       float64
}

// AllCombos enumerates the full 1920-point grid in deterministic order.
func AllCombos() []Combo {
	out := make([]Combo, 0, len(GridP)*len(GridMx)*len(GridMaxLevel)*len(GridR0)*len(GridRhoIn))
	for _, p := range GridP {
		for _, mx := range GridMx {
			for _, ml := range GridMaxLevel {
				for _, r0 := range GridR0 {
					for _, ri := range GridRhoIn {
						out = append(out, Combo{P: p, Mx: mx, MaxLevel: ml, R0: r0, RhoIn: ri})
					}
				}
			}
		}
	}
	return out
}

// Dataset is an ordered collection of jobs.
type Dataset struct {
	Jobs []Job
}

// Len returns the number of jobs.
func (d *Dataset) Len() int { return len(d.Jobs) }

// featureRange returns the min and max of each feature over the canonical
// grids (not the sampled data), so scaling is stable across datasets.
func featureRange() (lo, hi [NumFeatures]float64) {
	lo = [NumFeatures]float64{float64(GridP[0]), float64(GridMx[0]), float64(GridMaxLevel[0]), GridR0[0], GridRhoIn[0]}
	hi = [NumFeatures]float64{
		float64(GridP[len(GridP)-1]),
		float64(GridMx[len(GridMx)-1]),
		float64(GridMaxLevel[len(GridMaxLevel)-1]),
		GridR0[len(GridR0)-1],
		GridRhoIn[len(GridRhoIn)-1],
	}
	return lo, hi
}

// ScaleFeatures maps a job's features to the unit cube [0,1]^5, the
// preprocessing the paper applies before GPR fitting.
func ScaleFeatures(j Job) [NumFeatures]float64 {
	lo, hi := featureRange()
	raw := [NumFeatures]float64{float64(j.P), float64(j.Mx), float64(j.MaxLevel), j.R0, j.RhoIn}
	var out [NumFeatures]float64
	for i := range raw {
		out[i] = (raw[i] - lo[i]) / (hi[i] - lo[i])
	}
	return out
}

// Features assembles the scaled design matrix X for a subset of job indices
// (all jobs when idx is nil): row r is ScaleFeatures of job idx[r].
func (d *Dataset) Features(idx []int) *mat.Dense {
	x, _ := d.features(idx, false, false)
	return x
}

// FeaturesLog2P assembles the design matrix using the log2(p) transform,
// the preprocessing variant the paper's Discussion (§V-D) proposes for
// exponentially spaced machine sizes: row r is ScaleFeatures of job idx[r]
// except that the node-count feature is log2(p), scaled over the log2 of
// GridP's range.
func (d *Dataset) FeaturesLog2P(idx []int) *mat.Dense {
	x, _ := d.features(idx, true, false)
	return x
}

// CheckedFeatures assembles the design matrix of Features (FeaturesLog2P
// when log2p is set) and, in the same pass over the jobs, verifies each
// indexed job satisfies the log-transform precondition; see
// CheckResponses. The error names the first bad job in index order and
// wraps ErrBadResponse.
func (d *Dataset) CheckedFeatures(idx []int, log2p bool) (*mat.Dense, error) {
	return d.features(idx, log2p, true)
}

// features is the per-job scaling over many jobs, written straight into
// the matrix: the grid bounds and spans are computed once, and each feature
// keeps the per-job functions' subtraction and division, so it keeps their
// bits. With check set, each job's responses are checked as its row is
// built.
func (d *Dataset) features(idx []int, log2p, check bool) (*mat.Dense, error) {
	lo, hi := featureRange()
	var span [NumFeatures]float64
	for i := range span {
		span[i] = hi[i] - lo[i]
	}
	plo := math.Log2(float64(GridP[0]))
	pspan := math.Log2(float64(GridP[len(GridP)-1])) - plo
	n := len(idx)
	if idx == nil {
		n = len(d.Jobs)
	}
	x := mat.NewDense(n, NumFeatures, nil)
	data := x.RawData()
	for r := 0; r < n; r++ {
		i := r
		if idx != nil {
			i = idx[r]
		}
		j := &d.Jobs[i]
		if check && (badResponse(j.WallSec) || badResponse(j.CostNH) || badResponse(j.MemMB)) {
			return nil, fmt.Errorf("job %d: %w", i, j.CheckResponses())
		}
		f := data[r*NumFeatures : (r+1)*NumFeatures]
		if log2p {
			f[0] = (math.Log2(float64(j.P)) - plo) / pspan
		} else {
			f[0] = (float64(j.P) - lo[0]) / span[0]
		}
		f[1] = (float64(j.Mx) - lo[1]) / span[1]
		f[2] = (float64(j.MaxLevel) - lo[2]) / span[2]
		f[3] = (j.R0 - lo[3]) / span[3]
		f[4] = (j.RhoIn - lo[4]) / span[4]
	}
	return x, nil
}

// LogCost returns log10 of the cost response for the given indices (all
// when nil).
func (d *Dataset) LogCost(idx []int) []float64 {
	return d.response(idx, func(j Job) float64 { return math.Log10(j.CostNH) })
}

// LogMem returns log10 of the memory response (MB).
func (d *Dataset) LogMem(idx []int) []float64 {
	return d.response(idx, func(j Job) float64 { return math.Log10(j.MemMB) })
}

// Cost returns the raw cost response in node-hours.
func (d *Dataset) Cost(idx []int) []float64 {
	return d.response(idx, func(j Job) float64 { return j.CostNH })
}

// Mem returns the raw memory response in MB.
func (d *Dataset) Mem(idx []int) []float64 {
	return d.response(idx, func(j Job) float64 { return j.MemMB })
}

// Wall returns the raw wall-clock response in seconds.
func (d *Dataset) Wall(idx []int) []float64 {
	return d.response(idx, func(j Job) float64 { return j.WallSec })
}

func (d *Dataset) response(idx []int, f func(Job) float64) []float64 {
	if idx == nil {
		out := make([]float64, len(d.Jobs))
		for i, j := range d.Jobs {
			out[i] = f(j)
		}
		return out
	}
	out := make([]float64, len(idx))
	for r, i := range idx {
		out[r] = f(d.Jobs[i])
	}
	return out
}

// Validate checks that every job has physically sensible responses and
// on-grid features.
func (d *Dataset) Validate() error {
	onGridInt := func(v int, grid []int) bool {
		for _, g := range grid {
			if v == g {
				return true
			}
		}
		return false
	}
	onGridF := func(v float64, grid []float64) bool {
		for _, g := range grid {
			if math.Abs(v-g) < 1e-12 {
				return true
			}
		}
		return false
	}
	for i, j := range d.Jobs {
		if j.WallSec <= 0 || j.CostNH <= 0 || j.MemMB <= 0 {
			return fmt.Errorf("dataset: job %d has non-positive responses: %+v", i, j)
		}
		if !onGridInt(j.P, GridP) || !onGridInt(j.Mx, GridMx) || !onGridInt(j.MaxLevel, GridMaxLevel) {
			return fmt.Errorf("dataset: job %d has off-grid integer feature: %+v", i, j)
		}
		if !onGridF(j.R0, GridR0) || !onGridF(j.RhoIn, GridRhoIn) {
			return fmt.Errorf("dataset: job %d has off-grid physical feature: %+v", i, j)
		}
	}
	return nil
}

// UniqueCombos counts distinct feature combinations.
func (d *Dataset) UniqueCombos() int {
	seen := make(map[Combo]bool, len(d.Jobs))
	for _, j := range d.Jobs {
		seen[j.Config()] = true
	}
	return len(seen)
}
