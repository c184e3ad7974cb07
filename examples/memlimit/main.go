// Memlimit: the two-phase workflow the paper's §V-B simulates.
//
// Phase 1 runs a handful of exploratory simulations on a "bigmem" queue with
// no memory restriction (the Initial partition). Phase 2 switches to a
// regular queue with a hard per-process memory limit and lets memory-aware
// AL (RGMA) pick all further experiments, comparing it against the
// memory-oblivious RandGoodness on the same pool.
//
//	go run ./examples/memlimit
package main

import (
	"fmt"
	"log"
	"math/rand"

	"alamr/internal/dataset"
	"alamr/internal/engine"
)

func main() {
	log.SetFlags(0)

	fmt.Println("generating a 180-job campaign...")
	ds, err := dataset.Generate(dataset.GenConfig{
		Seed: 21, NumJobs: 180, NumUnique: 150, RefNx: 64, RefTEnd: 0.15, RefSnaps: 6,
	})
	if err != nil {
		log.Fatal(err)
	}

	limit := engine.PaperMemLimitMB(ds)
	fmt.Printf("phase 2 queue limit: %.3g MB per process\n", limit)
	over := 0
	for _, j := range ds.Jobs {
		if j.MemMB >= limit {
			over++
		}
	}
	fmt.Printf("%d of %d jobs in the pool would crash on the phase-2 queue\n\n", over, ds.Len())

	// One shared partition: phase 1 = Init (20 jobs, run on bigmem), phase 2
	// = Active under the limit.
	part, err := dataset.Split(ds, 20, 40, rand.New(rand.NewSource(2)))
	if err != nil {
		log.Fatal(err)
	}

	run := func(p engine.Policy) *engine.Trajectory {
		tr, err := engine.RunReplay(ds, part, engine.LoopConfig{
			Policy:        p,
			MaxIterations: 80,
			MemLimitMB:    limit,
			Seed:          9,
		})
		if err != nil {
			log.Fatal(err)
		}
		return tr
	}

	aware := run(engine.RGMA{})
	oblivious := run(engine.RandGoodness{})

	summarize := func(name string, tr *engine.Trajectory) {
		n := tr.Iterations()
		crashes := 0
		for _, v := range tr.Violation {
			if v {
				crashes++
			}
		}
		fmt.Printf("%-14s iterations=%-3d crashes=%-2d wasted=%.4g nh  total=%.4g nh  final cost RMSE=%.4g\n",
			name, n, crashes, tr.CumRegret[n-1], tr.CumCost[n-1], tr.CostRMSE[n-1])
	}
	fmt.Println("phase 2 results (crash = selected job exceeded the queue limit):")
	summarize("RGMA", aware)
	summarize("RandGoodness", oblivious)

	fmt.Println("\nRGMA spends those node-hours on jobs that finish; the oblivious")
	fmt.Println("policy burns its budget on jobs the queue kills at the last moment.")
}
