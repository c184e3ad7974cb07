package remotelab

import (
	"math"

	"alamr/internal/dataset"
	"alamr/internal/stats"
)

// SynthLab is an analytic executor: cost grows with resolution and depth
// and shrinks with node count, memory with the per-node working set —
// qualitatively the paper's AMR scaling, computed in nanoseconds. It backs
// the remote-lab tests and `al-worker -lab synth` smoke fleets, where the
// point is exercising the wire, not the physics.
type SynthLab struct{}

// RunSeeded implements Executor. The measurement is a pure function of
// (c, noiseSeed): the analytic base response with a small seeded
// multiplicative noise, so any worker re-executing a lost job reproduces
// it exactly.
func (SynthLab) RunSeeded(c dataset.Combo, noiseSeed int64) (dataset.Job, error) {
	wall := 2.0 * math.Pow(float64(c.Mx)/8, 1.5) * math.Pow(2, float64(c.MaxLevel-3)) *
		(1 + c.R0) / (0.3 + c.RhoIn)
	mem := 0.05 * float64(c.Mx) * float64(c.Mx) / 64 *
		math.Pow(2, float64(c.MaxLevel-3)) / math.Sqrt(float64(c.P))
	noise := stats.SeededRand(noiseSeed)
	wall *= 1 + 0.02*noise.NormFloat64()
	mem *= 1 + 0.01*noise.NormFloat64()
	stats.PutRand(noise)
	if wall < 1e-9 {
		wall = 1e-9
	}
	if mem < 1e-9 {
		mem = 1e-9
	}
	return dataset.Job{
		P: c.P, Mx: c.Mx, MaxLevel: c.MaxLevel, R0: c.R0, RhoIn: c.RhoIn,
		WallSec: wall,
		CostNH:  wall * float64(c.P) / 3600,
		MemMB:   mem,
	}, nil
}

// Candidates lets SynthLab double as a local engine.Lab in tests.
func (SynthLab) Candidates() []dataset.Combo { return dataset.AllCombos() }

// Run executes with an unseeded (zero-seed) noise stream; prefer RunSeeded.
func (l SynthLab) Run(c dataset.Combo) (dataset.Job, error) { return l.RunSeeded(c, 0) }
