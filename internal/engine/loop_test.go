package engine

import (
	"math"
	"math/rand"
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/stats"
)

func smallPartition(t *testing.T, ds *dataset.Dataset, nInit, nTest int, seed int64) dataset.Partition {
	t.Helper()
	part, err := dataset.Split(ds, nInit, nTest, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return part
}

func runSmall(t *testing.T, policy Policy, maxIter int, memLimit float64) *Trajectory {
	t.Helper()
	ds := synthDS(120, 42)
	part := smallPartition(t, ds, 10, 40, 7)
	tr, err := RunReplay(ds, part, LoopConfig{
		Policy:        policy,
		MaxIterations: maxIter,
		MemLimitMB:    memLimit,
		Seed:          13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunTrajectoryBookkeeping(t *testing.T) {
	tr := runSmall(t, RandUniform{}, 25, 0)
	if tr.Iterations() != 25 {
		t.Fatalf("iterations = %d want 25", tr.Iterations())
	}
	if tr.Reason != StopMaxIterations {
		t.Fatalf("reason = %s", tr.Reason)
	}
	// Uniqueness of selections.
	seen := map[int]bool{}
	for _, idx := range tr.Selected {
		if seen[idx] {
			t.Fatalf("index %d selected twice", idx)
		}
		seen[idx] = true
	}
	// Metric lengths all match.
	n := tr.Iterations()
	for name, l := range map[string]int{
		"CostRMSE": len(tr.CostRMSE), "MemRMSE": len(tr.MemRMSE),
		"CumCost": len(tr.CumCost), "CumRegret": len(tr.CumRegret),
		"Violation": len(tr.Violation), "SelectedCost": len(tr.SelectedCost),
	} {
		if l != n {
			t.Fatalf("%s has length %d want %d", name, l, n)
		}
	}
	// CC monotone; CR monotone and bounded by CC.
	for i := 0; i < n; i++ {
		if i > 0 && tr.CumCost[i] < tr.CumCost[i-1] {
			t.Fatal("CumCost not monotone")
		}
		if i > 0 && tr.CumRegret[i] < tr.CumRegret[i-1] {
			t.Fatal("CumRegret not monotone")
		}
		if tr.CumRegret[i] > tr.CumCost[i]+1e-12 {
			t.Fatal("CumRegret exceeds CumCost")
		}
	}
	if len(tr.FinalHyperCost) == 0 || len(tr.FinalHyperMem) == 0 {
		t.Fatal("final hyperparameters not recorded")
	}
}

func TestRunTrajectoryNoLimitNoRegret(t *testing.T) {
	tr := runSmall(t, RandUniform{}, 15, 0)
	for i, v := range tr.Violation {
		if v || tr.CumRegret[i] != 0 {
			t.Fatal("regret recorded without a memory limit")
		}
	}
}

func TestLearningReducesRMSE(t *testing.T) {
	tr := runSmall(t, MaxSigma{}, 60, 0)
	last := tr.CostRMSE[len(tr.CostRMSE)-1]
	if last >= tr.InitCostRMSE {
		t.Fatalf("cost RMSE did not improve: init %g final %g", tr.InitCostRMSE, last)
	}
}

func TestMinPredSelectsCheaperThanUniform(t *testing.T) {
	greedy := runSmall(t, MinPred{}, 30, 0)
	uniform := runSmall(t, RandUniform{}, 30, 0)
	if greedy.CumCost[29] >= uniform.CumCost[29] {
		t.Fatalf("MinPred CC %g not below RandUniform CC %g",
			greedy.CumCost[29], uniform.CumCost[29])
	}
}

func TestRGMAAvoidsViolations(t *testing.T) {
	ds := synthDS(150, 43)
	limit := stats.Quantile(ds.Mem(nil), 0.7)
	part := smallPartition(t, ds, 25, 40, 8)
	run := func(p Policy) int {
		tr, err := RunReplay(ds, part, LoopConfig{
			Policy: p, MaxIterations: 40, MemLimitMB: limit, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, v := range tr.Violation {
			if v {
				n++
			}
		}
		return n
	}
	vRGMA := run(RGMA{})
	vUniform := run(RandUniform{})
	if vRGMA >= vUniform {
		t.Fatalf("RGMA violations %d not below RandUniform %d", vRGMA, vUniform)
	}
}

func TestRGMAEarlyTermination(t *testing.T) {
	ds := synthDS(100, 44)
	// Limit below every sample: after the init fit, all candidates are
	// predicted to exceed.
	limit := stats.Min(ds.Mem(nil)) * 0.5
	part := smallPartition(t, ds, 15, 30, 9)
	tr, err := RunReplay(ds, part, LoopConfig{
		Policy: RGMA{}, MemLimitMB: limit, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Reason != StopMemoryLimit {
		t.Fatalf("reason = %s want %s", tr.Reason, StopMemoryLimit)
	}
	if tr.Iterations() > 5 {
		t.Fatalf("expected near-immediate stop, ran %d iterations", tr.Iterations())
	}
}

func TestStableStopping(t *testing.T) {
	ds := synthDS(120, 45)
	part := smallPartition(t, ds, 30, 40, 10)
	tr, err := RunReplay(ds, part, LoopConfig{
		Policy: MaxSigma{},
		Seed:   21,
		Stable: &StableStopConfig{Window: 3, Tol: 0.5}, // generous: triggers fast
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Reason != StopStable {
		t.Fatalf("reason = %s want %s", tr.Reason, StopStable)
	}
	if tr.Iterations() >= len(part.Active) {
		t.Fatal("stable stop did not shorten the run")
	}
}

func TestPoolExhaustion(t *testing.T) {
	ds := synthDS(60, 46)
	part := smallPartition(t, ds, 10, 30, 11) // 20 active
	tr, err := RunReplay(ds, part, LoopConfig{Policy: RandUniform{}, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Reason != StopPoolExhausted {
		t.Fatalf("reason = %s", tr.Reason)
	}
	if tr.Iterations() != 20 {
		t.Fatalf("iterations = %d want 20", tr.Iterations())
	}
}

func TestRunTrajectoryValidation(t *testing.T) {
	ds := synthDS(50, 47)
	part := smallPartition(t, ds, 5, 20, 12)
	if _, err := RunReplay(ds, part, LoopConfig{}); err == nil {
		t.Fatal("nil policy accepted")
	}
	bad := part
	bad.Init = nil
	if _, err := RunReplay(ds, bad, LoopConfig{Policy: RandUniform{}}); err == nil {
		t.Fatal("broken partition accepted")
	}
}

func TestTrajectoryDeterminism(t *testing.T) {
	ds := synthDS(100, 48)
	part := smallPartition(t, ds, 10, 30, 13)
	run := func() *Trajectory {
		tr, err := RunReplay(ds, part, LoopConfig{
			Policy: RandGoodness{}, MaxIterations: 20, Seed: 29,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(), run()
	for i := range a.Selected {
		if a.Selected[i] != b.Selected[i] {
			t.Fatalf("selection diverged at %d", i)
		}
	}
	for i := range a.CostRMSE {
		if a.CostRMSE[i] != b.CostRMSE[i] {
			t.Fatalf("metrics diverged at %d", i)
		}
	}
}

func TestLog2PTransformRuns(t *testing.T) {
	ds := synthDS(80, 49)
	part := smallPartition(t, ds, 10, 30, 14)
	tr, err := RunReplay(ds, part, LoopConfig{
		Policy: MinPred{}, MaxIterations: 10, Seed: 31, Log2P: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Iterations() != 10 {
		t.Fatalf("iterations = %d", tr.Iterations())
	}
}

func TestHyperoptEveryOneMatchesPaperAlgorithm(t *testing.T) {
	// HyperoptEvery=1 refits at every iteration (exactly Algorithm 1); the
	// run must still work and produce valid metrics.
	ds := synthDS(60, 50)
	part := smallPartition(t, ds, 8, 20, 15)
	tr, err := RunReplay(ds, part, LoopConfig{
		Policy: MaxSigma{}, MaxIterations: 8, HyperoptEvery: 1, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range tr.CostRMSE {
		if math.IsNaN(v) || v <= 0 {
			t.Fatalf("invalid RMSE %g", v)
		}
	}
}

func TestPaperMemLimit(t *testing.T) {
	ds := synthDS(200, 54)
	l := PaperMemLimitMB(ds)
	mx := stats.Max(ds.Mem(nil))
	if l <= 0 || l >= mx {
		t.Fatalf("limit %g outside (0, %g)", l, mx)
	}
	// The bytes^0.95 rule lands in the upper half of the range for MB-scale
	// data.
	if l < mx*0.2 {
		t.Fatalf("limit %g suspiciously low vs max %g", l, mx)
	}
}
