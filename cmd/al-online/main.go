// Command al-online runs a live active-learning campaign against the
// simulation-backed lab: the learner proposes configurations from the full
// 1920-point design grid and each proposal is actually simulated (shock-
// bubble hydrodynamics + machine model) on demand — the "online" system the
// paper contrasts with its offline simulator.
//
// The campaign runtime is fault-tolerant: -checkpoint makes it resumable
// after a crash, and the -ptransient/-pcorrupt/-rsslimit/-walllimit flags
// inject seeded faults (for chaos-testing the runtime or studying how the
// learner copes with OOM-censored observations).
//
// With -metrics-addr the campaign serves live Prometheus metrics (cumulative
// cost, regret, memory headroom, fault counters) and pprof profiling
// endpoints while it runs; -trace-out streams span events as JSONL.
//
// Usage:
//
//	al-online [-policy rgma] [-n 25] [-budget 2] [-memlimit 1] [-seed 17]
//	          [-checkpoint campaign.ckpt] [-retries 3]
//	          [-ptransient 0.1] [-pcorrupt 0.05] [-rsslimit 1] [-walllimit 300]
//	          [-metrics-addr 127.0.0.1:9090] [-trace-out trace.jsonl]
//	al-online -spec examples/specs/online-sim.json
//
// With -spec a declarative campaign file replaces the flags (fault-injection
// flags do not apply; the spec's lab runs unwrapped). -data supplies the
// offline dataset when the spec references the "replay" lab or the paper
// memory rule.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"alamr/internal/engine"
	"alamr/internal/faults"
	"alamr/internal/obs"
	"alamr/internal/online"
	_ "alamr/internal/remotelab" // registers the "remote" lab for -spec files
	"alamr/internal/report"
)

// options carries every flag value that needs validation, so the checks can
// be exercised by a table test without forking the process.
type options struct {
	spec       string
	data       string
	policy     string
	n          int
	budget     float64
	memLimit   float64
	refNx      int
	retries    int
	pTransient float64
	pCorrupt   float64
	rssLimit   float64
	wallLimit  float64
}

// validate returns the first flag error, or nil. It covers every numeric
// range and the policy name; main routes the error to stderr and exits
// non-zero. With -spec the campaign flags are ignored (the file carries its
// own validated campaign), so only the flag path is checked.
func (o options) validate() error {
	if o.spec != "" {
		return nil
	}
	if o.n < 0 {
		return fmt.Errorf("-n must be non-negative, got %d", o.n)
	}
	if o.budget < 0 {
		return fmt.Errorf("-budget must be non-negative, got %g", o.budget)
	}
	if o.memLimit < 0 {
		return fmt.Errorf("-memlimit must be non-negative, got %g", o.memLimit)
	}
	if o.refNx <= 0 {
		return fmt.Errorf("-refnx must be positive, got %d", o.refNx)
	}
	if o.retries < 1 {
		return fmt.Errorf("-retries must be at least 1, got %d", o.retries)
	}
	if o.pTransient < 0 || o.pTransient >= 1 {
		return fmt.Errorf("-ptransient must be in [0, 1), got %g", o.pTransient)
	}
	if o.pCorrupt < 0 || o.pCorrupt >= 1 {
		return fmt.Errorf("-pcorrupt must be in [0, 1), got %g", o.pCorrupt)
	}
	if o.rssLimit < 0 {
		return fmt.Errorf("-rsslimit must be non-negative, got %g", o.rssLimit)
	}
	if o.wallLimit < 0 {
		return fmt.Errorf("-walllimit must be non-negative, got %g", o.wallLimit)
	}
	if _, err := policyByName(o.policy); err != nil {
		return err
	}
	return nil
}

// policyByName resolves a policy through the engine registry (which also
// serves spec files), so flags and specs accept the same names.
func policyByName(name string) (engine.Policy, error) {
	return engine.BuildPolicy(engine.PolicySpec{Name: name})
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("al-online: ")

	var o options
	flag.StringVar(&o.spec, "spec", "", "campaign spec JSON to run instead of building one from flags")
	flag.StringVar(&o.data, "data", "", "dataset CSV; needed when -spec references the replay lab or the paper memory rule")
	flag.StringVar(&o.policy, "policy", "rgma", "selection policy (randuniform|maxsigma|minpred|randgoodness|rgma)")
	flag.IntVar(&o.n, "n", 25, "maximum AL-selected experiments")
	flag.Float64Var(&o.budget, "budget", 0, "node-hour budget (0 = unlimited)")
	flag.Float64Var(&o.memLimit, "memlimit", 0, "memory limit in MB (0 = none)")
	seed := flag.Int64("seed", 17, "seed")
	flag.IntVar(&o.refNx, "refnx", 64, "physics reference resolution")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: written after every experiment, resumed from if present")
	flag.IntVar(&o.retries, "retries", 3, "per-job attempt budget for retryable faults")
	flag.Float64Var(&o.pTransient, "ptransient", 0, "injected per-attempt transient-failure probability")
	flag.Float64Var(&o.pCorrupt, "pcorrupt", 0, "injected per-attempt corrupted-measurement probability")
	flag.Float64Var(&o.rssLimit, "rsslimit", 0, "injected OOM-killer RSS limit in MB (0 = off)")
	flag.Float64Var(&o.wallLimit, "walllimit", 0, "injected wall-clock kill limit in seconds (0 = off)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address while the campaign runs")
	traceOut := flag.String("trace-out", "", "write span trace events as JSONL to this file")
	flag.Parse()

	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "al-online: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	bundle, err := obs.Boot(*metricsAddr, *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "al-online: observability setup: %v\n", err)
		os.Exit(2)
	}
	defer bundle.Close()

	var res *online.Result
	refRuns := -1 // physics-reference count; -1 when the spec path owns the lab
	injecting := false
	if o.spec != "" {
		spec, ds, serr := engine.LoadSpecForRun(o.spec, o.data)
		if serr != nil {
			bundle.Close()
			log.Fatal(serr)
		}
		res, err = online.RunSpec(spec, ds)
	} else {
		policy, _ := policyByName(o.policy)
		sim := online.NewSimLab(online.SimLabConfig{RefNx: o.refNx, Seed: *seed})
		var lab engine.Lab = sim
		injecting = o.pTransient > 0 || o.pCorrupt > 0 || o.rssLimit > 0 || o.wallLimit > 0
		if injecting {
			lab, err = faults.NewFaultyLab(sim, faults.LabConfig{
				Seed:         *seed,
				RSSLimitMB:   o.rssLimit,
				WallLimitSec: o.wallLimit,
				PTransient:   o.pTransient,
				PCorrupt:     o.pCorrupt,
			})
			if err != nil {
				bundle.Close()
				log.Fatal(err)
			}
		}

		res, err = online.Run(lab, online.Config{
			Policy:         policy,
			MaxExperiments: o.n,
			Budget:         o.budget,
			MemLimitMB:     o.memLimit,
			Seed:           *seed,
			CheckpointPath: *checkpoint,
			Retry:          faults.RetryPolicy{MaxAttempts: o.retries, Seed: *seed},
		})
		refRuns = sim.NumReferenceRuns()
	}
	if err != nil {
		if res == nil {
			bundle.Close()
			log.Fatal(err)
		}
		// A fault-stopped campaign still carries partial results worth
		// reporting; announce the error and fall through.
		log.Printf("campaign stopped early: %v", err)
	}

	if refRuns >= 0 {
		fmt.Printf("campaign: %d experiments, stop=%s, %d physics references used\n",
			len(res.Jobs), res.Reason, refRuns)
	} else {
		fmt.Printf("campaign: %d experiments, stop=%s\n", len(res.Jobs), res.Reason)
	}
	if len(res.CumCost) > 0 {
		last := len(res.CumCost) - 1
		fmt.Printf("spent %.4g node-hours (regret %.4g), one-step cost MAPE %.0f%%\n",
			res.CumCost[last], res.CumRegret[last], 100*res.OneStepMAPE())
	}
	for i := range res.ActualCost {
		j := res.Jobs[i+1]
		mark := ""
		if res.Violation[i] {
			mark = "  !! memory"
		}
		if i < len(res.Censored) && res.Censored[i] {
			mark += "  (censored)"
		}
		fmt.Printf("#%02d p=%-2d mx=%-2d ml=%d r0=%.1f rho=%.2f  pred=%.4g actual=%.4g nh%s\n",
			i+1, j.P, j.Mx, j.MaxLevel, j.R0, j.RhoIn, res.PredictedCost[i], res.ActualCost[i], mark)
	}
	if injecting || res.Health.Attempts > res.Health.Successes {
		fmt.Println("\ncampaign health")
		fmt.Print(report.HealthTable(res.Health))
	}
	if t := report.ObsSummary(obs.Default()); t != nil {
		fmt.Println("\nobservability summary")
		if err := t.Write(os.Stdout); err != nil {
			log.Print(err)
		}
	}
	if err != nil {
		bundle.Close()
		os.Exit(1)
	}
}
