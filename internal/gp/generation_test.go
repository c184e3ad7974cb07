package gp

import (
	"math/rand"
	"testing"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// TestGenerationMovesOnlyWhenSigmaCanRise: every surrogate's posterior
// generation advances on the changes that can raise σ somewhere — Fit,
// Refit, a sparse projection, a treed re-split, a multi-fidelity level's
// first fit — and never on a plain Append, which can only shrink σ.
// Streamed pools key their per-candidate prune bounds on it.
func TestGenerationMovesOnlyWhenSigmaCanRise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	row := func(dial float64) []float64 { return []float64{rng.Float64() * 2, rng.Float64() * 2, dial} }
	x := mat.NewDense(12, 3, nil)
	y := make([]float64, 12)
	for i := range y {
		copy(x.Row(i), row(1))
		y[i] = x.At(i, 0) - x.At(i, 1)
	}
	cfg := Config{Noise: 0.1, NoOptimize: true}
	mf, err := NewMultiFid(kernel.NewRBF(0.8, 1), cfg, MultiFidConfig{Dim: 2, Ladder: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	models := map[string]Model{
		"exact":    New(kernel.NewRBF(0.8, 1), cfg),
		"sparse":   NewSparse(kernel.NewRBF(0.8, 1), cfg, 6),
		"treed":    NewTreed(kernel.NewRBF(0.8, 1), cfg, 8),
		"multifid": mf,
	}
	models["treed"].(*Treed).SetRebalance(1)
	for _, name := range []string{"exact", "sparse", "treed", "multifid"} {
		m := models[name]
		if err := m.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		gen := m.Generation()
		resplits := 0
		for i := 0; i < 10; i++ {
			leaves := 0
			if tr, ok := m.(*Treed); ok {
				leaves = tr.NumLeaves()
			}
			if err := m.Append(row(1), rng.NormFloat64()); err != nil {
				t.Fatal(err)
			}
			moved := m.Generation() != gen
			split := false
			if tr, ok := m.(*Treed); ok {
				split = tr.NumLeaves() != leaves
			}
			if split {
				resplits++
			}
			if moved != split {
				t.Fatalf("%s: append %d moved the generation %v, re-split %v", name, i, moved, split)
			}
			gen = m.Generation()
		}
		if _, ok := m.(*Treed); ok && resplits == 0 {
			t.Fatalf("treed: ten appends into 8-row leaves never re-split")
		}
		if err := m.Refit(); err != nil {
			t.Fatal(err)
		}
		if m.Generation() == gen {
			t.Fatalf("%s: Refit left the generation at %d", name, gen)
		}
	}

	// A multi-fidelity level's first observation replaces its prior σ with
	// a fitted δ-GP; later ones ride the level GP's Append.
	gen := mf.Generation()
	if err := mf.Append(row(2), 0.3); err != nil {
		t.Fatal(err)
	}
	if mf.Generation() == gen {
		t.Fatal("multifid: first observation at an empty level left the generation unchanged")
	}
	gen = mf.Generation()
	if err := mf.Append(row(2), 0.1); err != nil {
		t.Fatal(err)
	}
	if mf.Generation() != gen {
		t.Fatal("multifid: second observation at a fitted level moved the generation")
	}
}
