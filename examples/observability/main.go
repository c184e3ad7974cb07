// Observability: run a reduced active-learning trajectory with the metrics
// registry and span tracer enabled, then inspect everything the campaign
// recorded about itself — live-style Prometheus series, the end-of-run
// digest, and the span trace.
//
//	go run ./examples/observability
//
// The long-running commands expose the same registry over HTTP instead:
//
//	al-run -data dataset.csv -metrics-addr 127.0.0.1:9090 -trace-out trace.jsonl
//	curl -s http://127.0.0.1:9090/metrics | grep alamr_
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/obs"
	"alamr/internal/report"
)

func main() {
	log.SetFlags(0)

	// 1. Enable observability for the whole process. Every instrumented
	//    package (engine, gp, mat, faults, online) starts writing through its
	//    handles; with no Enable call all of that is a no-op.
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.TracerConfig{RingSize: 1024})
	obs.Enable(reg, tracer)
	defer obs.Disable()

	// 2. Generate a reduced campaign and run one RGMA trajectory on it —
	//    the same workload as examples/quickstart, now instrumented.
	fmt.Println("generating a 150-job campaign (reduced scale)...")
	ds, err := dataset.Generate(dataset.GenConfig{
		Seed:      7,
		NumJobs:   150,
		NumUnique: 120,
		RefNx:     64,
		RefTEnd:   0.15,
		RefSnaps:  6,
	})
	if err != nil {
		log.Fatal(err)
	}
	part, err := dataset.Split(ds, 10, 30, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}
	tr, err := engine.RunReplay(ds, part, engine.LoopConfig{
		Policy:        engine.RGMA{},
		MaxIterations: 60,
		MemLimitMB:    engine.PaperMemLimitMB(ds),
		Seed:          1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trajectory done: %d iterations, stop=%s\n\n", tr.Iterations(), tr.Reason)

	// 3. The Prometheus exposition — what a scraper would see. Print just
	//    the campaign-level series; the full dump is reg.WritePrometheus.
	fmt.Println("selected /metrics series:")
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "alamr_campaign_") || strings.HasPrefix(line, "alamr_loop_iterations") ||
			strings.HasPrefix(line, "alamr_cache_hits") || strings.HasPrefix(line, "alamr_gp_") {
			fmt.Println("  " + line)
		}
	}

	// 4. The end-of-run digest: every non-zero counter and gauge, plus
	//    count/mean per active histogram.
	fmt.Println("\nobservability summary:")
	if err := report.ObsSummary(reg).Write(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// 5. The span trace. The tracer keeps the most recent RingSize events;
	//    -trace-out streams all of them to a JSONL file instead.
	evs := tracer.Events()
	fmt.Printf("\ntrace ring holds %d events; last 5:\n", len(evs))
	for _, ev := range evs[max(0, len(evs)-5):] {
		fmt.Printf("  #%d %-8s %.3gms %s\n", ev.Seq, ev.Name, float64(ev.DurNS)/1e6, ev.Detail)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
