// Online: the true "online" mode the paper contrasts with its offline
// simulator — the learner proposes configurations from the full 1920-point
// design grid and a simulation-backed lab runs each one on demand (real
// shock-bubble hydrodynamics behind a cache, plus the Edison machine model).
//
// Watch two things: the one-step-ahead prediction error falling as the model
// learns, and the reference-solution cache staying small because the
// cost-efficient policy prefers physics it has already paid for.
//
//	go run ./examples/online
package main

import (
	"fmt"
	"log"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/online"
)

func main() {
	log.SetFlags(0)

	lab := online.NewSimLab(online.SimLabConfig{Seed: 5})
	fmt.Println("online campaign: RGMA proposes, the simulated cluster runs")

	res, err := online.Run(lab, online.Config{
		Policy:         engine.RGMA{},
		MaxExperiments: 25,
		Budget:         2.0, // node-hours
		MemLimitMB:     1.0,
		Seed:           17,
		InitDesign: []dataset.Combo{
			// The experimenter's warm-up run (paper: "verify correctness
			// first, then collect performance in a sequence of runs").
			{P: 8, Mx: 16, MaxLevel: 4, R0: 0.3, RhoIn: 0.1},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nran %d experiments (stop: %s), %d physics references used\n",
		len(res.Jobs), res.Reason, lab.NumReferenceRuns())
	n := len(res.CumCost)
	fmt.Printf("budget spent: %.3g node-hours, regret: %.3g\n", res.CumCost[n-1], res.CumRegret[n-1])
	fmt.Printf("one-step-ahead cost MAPE over the campaign: %.0f%%\n", 100*res.OneStepMAPE())

	fmt.Println("\nselection log (predicted vs actual cost):")
	for i := range res.ActualCost {
		j := res.Jobs[i+1] // Jobs[0] is the init design
		marker := ""
		if res.Violation[i] {
			marker = "  << exceeded memory limit"
		}
		fmt.Printf("  #%02d p=%-2d mx=%-2d ml=%d r0=%.1f rho=%.2f  pred %.4f  actual %.4f nh%s\n",
			i+1, j.P, j.Mx, j.MaxLevel, j.R0, j.RhoIn,
			res.PredictedCost[i], res.ActualCost[i], marker)
	}
}
