package engine

import (
	"reflect"
	"sync/atomic"
	"testing"

	"alamr/internal/gp"
	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// directOnly hides a built-in surrogate's type from gp.NewPoolCache, so the
// pool scorer takes the direct-Predict fallback a model registered through
// RegisterModel takes: the O(m·n²) reference path the incremental caches
// are pinned against.
type directOnly struct{ gp.Model }

// newDirectExact is a LoopConfig.NewModel constructor for the default
// surrogate (the exact GP under LoopConfig's defaults), scored directly.
func newDirectExact() gp.Model {
	return directOnly{gp.New(kernel.NewRBF(0.5, 1), gp.Config{Noise: 0.1, NormalizeY: true})}
}

// The acceptance contract of the incremental scoring engine: on fixed
// seeds, the cache-driven loop must make exactly the same policy selections
// (same RNG draws, same indices, same metrics) as the direct-Predict
// reference loop. reflect.DeepEqual on Trajectory compares every float64
// slice exactly; trajectories never carry NaN, so this is bitwise equality
// of the recorded run.
func TestCachedLoopMatchesDirectLoop(t *testing.T) {
	ds := synthDS(140, 42)
	part := smallPartition(t, ds, 10, 40, 7)
	policies := []Policy{RandUniform{}, MaxSigma{}, RandGoodness{}, RGMA{}}
	for _, p := range policies {
		cfg := LoopConfig{
			Policy:        p,
			MaxIterations: 30,
			MemLimitMB:    0.08,
			HyperoptEvery: 7,
			Seed:          13,
		}
		cached, err := RunReplay(ds, part, cfg)
		if err != nil {
			t.Fatalf("%s: cached run: %v", p.Name(), err)
		}
		cfg.NewModel = newDirectExact
		direct, err := RunReplay(ds, part, cfg)
		if err != nil {
			t.Fatalf("%s: direct run: %v", p.Name(), err)
		}
		if !reflect.DeepEqual(cached.Selected, direct.Selected) {
			t.Fatalf("%s: selections diverged\ncached: %v\ndirect: %v", p.Name(), cached.Selected, direct.Selected)
		}
		if !reflect.DeepEqual(cached, direct) {
			t.Fatalf("%s: trajectories diverged beyond selections\ncached: %+v\ndirect: %+v", p.Name(), cached, direct)
		}
	}
}

// Same contract for the q-batch loop, which additionally exercises the
// constant-liar batch strategies reading candidate feature rows from the
// scorer-maintained pool matrix and the descending-order batch removal.
func TestCachedBatchLoopMatchesDirectLoop(t *testing.T) {
	ds := synthDS(140, 43)
	part := smallPartition(t, ds, 10, 40, 9)
	for _, strategy := range []BatchStrategy{BatchIndependent, BatchConstantLiar} {
		cfg := LoopConfig{
			Policy:        RandGoodness{},
			MaxIterations: 24,
			MemLimitMB:    0.08,
			HyperoptEvery: 8,
			Seed:          17,
		}
		cached, err := RunReplayBatch(ds, part, cfg, 3, strategy)
		if err != nil {
			t.Fatalf("%s: cached run: %v", strategy, err)
		}
		cfg.NewModel = newDirectExact
		direct, err := RunReplayBatch(ds, part, cfg, 3, strategy)
		if err != nil {
			t.Fatalf("%s: direct run: %v", strategy, err)
		}
		if !reflect.DeepEqual(cached, direct) {
			t.Fatalf("%s: batch trajectories diverged\ncached: %+v\ndirect: %+v", strategy, cached, direct)
		}
	}
}

// The stable-predictions stopping path predicts on the held-out test set
// (never the pool); it must be unaffected by the scoring engine.
func TestCachedLoopStableStopMatchesDirect(t *testing.T) {
	ds := synthDS(140, 44)
	part := smallPartition(t, ds, 12, 40, 11)
	cfg := LoopConfig{
		Policy:        MaxSigma{},
		MaxIterations: 40,
		Seed:          3,
		Stable:        &StableStopConfig{Window: 3, Tol: 0.02},
	}
	cached, err := RunReplay(ds, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NewModel = newDirectExact
	cfg.Stable = &StableStopConfig{Window: 3, Tol: 0.02}
	direct, err := RunReplay(ds, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached, direct) {
		t.Fatalf("stable-stop trajectories diverged\ncached: %+v\ndirect: %+v", cached, direct)
	}
}

// testPredicts wraps a surrogate and counts its Predict calls on a matrix
// of testRows rows: the held-out test set, in a run whose pool never has
// that many rows.
type testPredicts struct {
	gp.Model
	testRows int
	calls    *atomic.Int64
}

func (m testPredicts) Predict(xs *mat.Dense) ([]float64, []float64) {
	if xs.Rows() == m.testRows {
		m.calls.Add(1)
	}
	return m.Model.Predict(xs)
}

// Each replay round predicts the test set once per surrogate, the stability
// check reusing the cost means the RMSE took, and the trajectories keep
// their bits: the counted run (scored directly, since the wrapper hides the
// surrogate's type) equals the cached run, with and without the check.
func TestReplayPredictsTestSetOncePerRound(t *testing.T) {
	ds := synthDS(140, 44)
	part := smallPartition(t, ds, 12, 40, 11) // 88 pool rows down to 48
	for _, stable := range []bool{false, true} {
		cfg := LoopConfig{Policy: MaxSigma{}, MaxIterations: 40, Seed: 3}
		if stable {
			cfg.Stable = &StableStopConfig{Window: 3, Tol: 0.02}
		}
		cached, err := RunReplay(ds, part, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var calls [2]atomic.Int64
		built := 0
		cfg.NewModel = func() gp.Model {
			built++
			return testPredicts{Model: newDirectExact(), testRows: len(part.Test), calls: &calls[built-1]}
		}
		if stable {
			cfg.Stable = &StableStopConfig{Window: 3, Tol: 0.02}
		}
		counted, err := RunReplay(ds, part, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached, counted) {
			t.Fatalf("stable %v: trajectories diverged\ncached: %+v\ncounted: %+v", stable, cached, counted)
		}
		if stable != (cached.Reason == StopStable) {
			t.Fatalf("stable %v: run stopped with %s", stable, cached.Reason)
		}
		rounds := int64(len(cached.CostRMSE))
		for i, name := range []string{"cost", "memory"} {
			if n := calls[i].Load(); n != rounds+1 {
				t.Fatalf("stable %v: %d test-set predictions by the %s surrogate over %d rounds, want %d", stable, n, name, rounds, rounds+1)
			}
		}
	}
}

// TestPoolScorerAttachesCaches: every built-in surrogate family is scored
// through its incremental pool cache, so the oracle tests above compare two
// different paths; a model gp.NewPoolCache does not know (directOnly, as a
// RegisterModel surrogate would be) gets none.
func TestPoolScorerAttachesCaches(t *testing.T) {
	for _, family := range []string{"exact", "sparse", "treed"} {
		cost, mem, pool := streamFamilyFixture(t, family, 81, 40, 50)
		cached := NewPoolScorer(cost, mem, pool)
		if cached.costCache == nil || cached.memCache == nil {
			t.Fatalf("%s: no pool cache attached", family)
		}
		cached.Close()
		direct := NewPoolScorer(directOnly{cost}, directOnly{mem}, pool)
		if direct.costCache != nil || direct.memCache != nil {
			t.Fatalf("%s: a cache attached to the directOnly wrapper", family)
		}
	}
}
