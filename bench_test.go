// Package bench holds the paper-level regeneration benchmarks: one
// benchmark per table and figure of the evaluation (§V), plus ablation
// benches for the design choices called out in DESIGN.md.
//
// Each benchmark runs its experiment end to end on a reduced-scale campaign
// (generated once per process) so `go test -bench=.` finishes on a laptop.
// Set ALAMR_FULL=1 to run at the paper's full scale (600 jobs, 150
// iterations, 10 partitions) — expect minutes per benchmark.
package bench

import (
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"

	"alamr/internal/amr"
	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/experiments"
)

var (
	dsOnce sync.Once
	dsVal  *dataset.Dataset
	dsErr  error
)

func fullScale() bool { return os.Getenv("ALAMR_FULL") == "1" }

// benchDataset generates the campaign once per process.
func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	dsOnce.Do(func() {
		cfg := dataset.GenConfig{Seed: 42, NumJobs: 150, NumUnique: 120, RefNx: 64, RefTEnd: 0.15, RefSnaps: 6}
		if fullScale() {
			cfg = dataset.GenConfig{Seed: 42}
		}
		dsVal, dsErr = dataset.Generate(cfg)
	})
	if dsErr != nil {
		b.Fatal(dsErr)
	}
	return dsVal
}

func benchOpts(b *testing.B, ds *dataset.Dataset) experiments.Options {
	b.Helper()
	opts := experiments.Options{
		Dataset:       ds,
		Out:           io.Discard,
		Partitions:    2,
		MaxIterations: 20,
		Seed:          1,
	}
	if fullScale() {
		opts.Partitions = 10
		opts.MaxIterations = 150
	}
	return opts
}

// BenchmarkTable1Dataset regenerates the measurement campaign behind Table I
// (reference hydrodynamics + per-combination performance emulation + machine
// model + biased sampling) and summarizes it.
func BenchmarkTable1Dataset(b *testing.B) {
	cfg := dataset.GenConfig{Seed: 42, NumJobs: 60, NumUnique: 50, RefNx: 48, RefTEnd: 0.08, RefSnaps: 4}
	if fullScale() {
		cfg = dataset.GenConfig{Seed: 42}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := dataset.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.TableI(experiments.Options{Dataset: ds, Out: io.Discard}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Refinement runs the refinement-progression figure: the same
// shock-bubble problem solved at increasing maxlevel.
func BenchmarkFig1Refinement(b *testing.B) {
	ds := benchDataset(b)
	opts := benchOpts(b, ds)
	cfg := experiments.Fig1Config{Levels: []int{1, 2, 3}, TEnd: 0.05}
	if fullScale() {
		cfg = experiments.Fig1Config{}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(opts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2CostDistributions reproduces the per-policy selection cost
// distributions (violins) of Fig 2.
func BenchmarkFig2CostDistributions(b *testing.B) {
	ds := benchDataset(b)
	opts := benchOpts(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3CumulativeRegret reproduces the cumulative-regret comparison
// of memory-aware vs memory-oblivious policies (Fig 3).
func BenchmarkFig3CumulativeRegret(b *testing.B) {
	ds := benchDataset(b)
	opts := benchOpts(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4ErrorTradeoffs reproduces the RMSE / cumulative-cost
// trade-off curves of Fig 4.
func BenchmarkFig4ErrorTradeoffs(b *testing.B) {
	ds := benchDataset(b)
	opts := benchOpts(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRGMAViolations reproduces the §V-C violation-timeline analysis
// (RGMA learning from its own mistakes at small n_init).
func BenchmarkRGMAViolations(b *testing.B) {
	ds := benchDataset(b)
	opts := benchOpts(b, ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ViolationTimeline(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationKernels compares RBF vs ARD-RBF vs Matérn surrogates
// (the paper's future-work kernels).
func BenchmarkAblationKernels(b *testing.B) {
	ds := benchDataset(b)
	opts := benchOpts(b, ds)
	opts.MaxIterations = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.KernelAblation(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLog2P compares linear vs log2(p) feature scaling (§V-D).
func BenchmarkAblationLog2P(b *testing.B) {
	ds := benchDataset(b)
	opts := benchOpts(b, ds)
	opts.MaxIterations = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Log2PAblation(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGoodnessBase sweeps the RandGoodness base.
func BenchmarkAblationGoodnessBase(b *testing.B) {
	ds := benchDataset(b)
	opts := benchOpts(b, ds)
	opts.MaxIterations = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GoodnessBaseAblation(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMemLimit sweeps L_mem across quantiles (RGMA
// sensitivity).
func BenchmarkAblationMemLimit(b *testing.B) {
	ds := benchDataset(b)
	opts := benchOpts(b, ds)
	opts.MaxIterations = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MemLimitSensitivity(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHyperoptCadence measures the accuracy/cost effect of the
// hyperparameter refit cadence (this implementation's one deviation knob
// from Algorithm 1, which refits every iteration).
func BenchmarkAblationHyperoptCadence(b *testing.B) {
	ds := benchDataset(b)
	opts := benchOpts(b, ds)
	opts.MaxIterations = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HyperoptCadenceAblation(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSubcycling compares the emulated work with global versus
// level-subcycled time stepping (a FORESTCLAW configuration choice that
// shifts the cost surface).
func BenchmarkAblationSubcycling(b *testing.B) {
	ref, err := amr.ReferenceRun(amr.ShockBubble{R0: 0.3, RhoIn: 0.1}, 64, 0.1, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sub := range []bool{false, true} {
			if _, err := amr.Emulate(ref, amr.EmulateConfig{Mx: 16, MaxLevel: 5, Subcycle: sub}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkALIteration isolates one full AL iteration (predict over the
// pool, select, absorb the sample) at a realistic model size.
func BenchmarkALIteration(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		part, err := dataset.Split(ds, 20, 30, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := engine.RunReplay(ds, part, engine.LoopConfig{
			Policy:        engine.RGMA{},
			MaxIterations: 1,
			MemLimitMB:    engine.PaperMemLimitMB(ds),
			Seed:          int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBatchSize runs the batch-mode AL study (future work §VI):
// selection quality vs campaign makespan for q ∈ {1, 4}.
func BenchmarkAblationBatchSize(b *testing.B) {
	ds := benchDataset(b)
	opts := benchOpts(b, ds)
	opts.MaxIterations = 12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BatchSizeStudy(opts, []int{1, 4}, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTreedSurrogate compares the flat GP against the
// partitioned (treed) local-model surrogate of the paper's future work.
func BenchmarkAblationTreedSurrogate(b *testing.B) {
	ds := benchDataset(b)
	opts := benchOpts(b, ds)
	opts.MaxIterations = 12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SurrogateAblation(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWeightedError scores final cost models under uniform vs
// cost-weighted RMSE (§V-D's metric discussion).
func BenchmarkAblationWeightedError(b *testing.B) {
	ds := benchDataset(b)
	opts := benchOpts(b, ds)
	opts.MaxIterations = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WeightedErrorStudy(opts); err != nil {
			b.Fatal(err)
		}
	}
}
