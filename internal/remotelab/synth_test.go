package remotelab

import (
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/stats"
)

// TestSynthLabRunAllocatesNothing: a synthetic measurement draws its noise
// from a pooled generator and allocates nothing.
func TestSynthLabRunAllocatesNothing(t *testing.T) {
	c := dataset.AllCombos()[11]
	seed := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		seed++
		if _, err := (SynthLab{}).RunSeeded(c, seed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SynthLab.RunSeeded allocated %v times per job", allocs)
	}
}

var benchJob dataset.Job

// BenchmarkSynthPool measures a 10⁵-job synthetic pool: the paper's
// p/mx/maxlevel grid at 25×50 (r0, rhoin) points, each job measured with
// its own noise seed, the way the pool-1e5 benchmark workload builds it.
func BenchmarkSynthPool(b *testing.B) {
	r0s := stats.Linspace(dataset.GridR0[0], dataset.GridR0[len(dataset.GridR0)-1], 25)
	rhos := stats.Linspace(dataset.GridRhoIn[0], dataset.GridRhoIn[len(dataset.GridRhoIn)-1], 50)
	var lab SynthLab
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, p := range dataset.GridP {
			for _, mx := range dataset.GridMx {
				for _, ml := range dataset.GridMaxLevel {
					for _, r0 := range r0s {
						for _, rho := range rhos {
							c := dataset.Combo{P: p, Mx: mx, MaxLevel: ml, R0: r0, RhoIn: rho}
							job, err := lab.RunSeeded(c, stats.SplitSeed(int64(i), n))
							if err != nil {
								b.Fatal(err)
							}
							benchJob = job
							n++
						}
					}
				}
			}
		}
		if n != 100000 {
			b.Fatalf("%d jobs, want 100000", n)
		}
	}
}
