// Command al-loadtest gates the campaign daemon's serving latency: it
// floods a daemon with small campaign submissions from concurrent clients
// while hammering the status endpoint, then checks the measured p99 submit
// and poll latencies against hard ceilings. The full latency report is
// written as JSON (BENCH_serve.json by convention) and a summary table is
// printed; any violated gate exits non-zero, which is how `make serve-smoke`
// turns a latency regression into a CI failure.
//
// By default the tool is self-contained: it starts an embedded daemon on an
// ephemeral port with a temporary store, runs the load, and tears it down.
// Point -addr at an already-running al-serve to load-test that instead (the
// target daemon must have been started with a dataset that can serve the
// submitted specs).
//
// Usage:
//
//	al-loadtest -data dataset.csv [-campaigns 32] [-submitters 4] [-pollers 4]
//	            [-tenants acme,globex] [-iters 3]
//	            [-p99-submit-ms 250] [-p99-poll-ms 100]
//	            [-out BENCH_serve.json]
//	al-loadtest -addr 127.0.0.1:8765 -data dataset.csv [...]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"alamr/internal/dataset"
	_ "alamr/internal/online" // registers the online mode runner + sim lab
	"alamr/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("al-loadtest: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// errNotPassed is run's error when a latency gate was violated or a
// campaign did not finish in state done; the details are already printed.
var errNotPassed = errors.New("load test did not pass")

// run is al-loadtest's body: it parses args, starts the embedded daemon
// unless -addr names one, runs the load, writes the report to -out and the
// latency table and gate lines to stdout. Its error is non-nil when the
// load could not run or did not pass.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("al-loadtest", flag.ExitOnError)
	addr := fs.String("addr", "", "daemon address to load-test; empty starts an embedded daemon")
	data := fs.String("data", "dataset.csv", "dataset CSV backing the submitted replay campaigns")
	campaigns := fs.Int("campaigns", 32, "total campaigns to submit")
	submitters := fs.Int("submitters", 4, "concurrent submitting clients")
	pollers := fs.Int("pollers", 4, "concurrent status-polling clients")
	tenants := fs.String("tenants", "acme,globex", "comma-separated tenants to cycle across submissions")
	iters := fs.Int("iters", 3, "AL iterations per submitted campaign (small: queue dynamics, not GP math)")
	p99Submit := fs.Float64("p99-submit-ms", 250, "p99 submit latency gate in ms (0 disables)")
	p99Poll := fs.Float64("p99-poll-ms", 100, "p99 status-poll latency gate in ms (0 disables)")
	workers := fs.Int("workers", runtime.NumCPU(), "campaign workers for the embedded daemon")
	out := fs.String("out", "BENCH_serve.json", "write the JSON latency report here (empty skips)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds, err := dataset.LoadFile(*data)
	if err != nil {
		return fmt.Errorf("loading dataset: %w (generate one with amr-gen)", err)
	}

	target := *addr
	if target == "" {
		storeDir, err := os.MkdirTemp("", "al-loadtest-store-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(storeDir)
		d, err := serve.New(serve.Config{
			StoreDir: storeDir,
			Workers:  *workers,
			Dataset:  ds,
			Logf:     func(string, ...any) {}, // keep daemon chatter out of the report
		})
		if err != nil {
			return err
		}
		if err := d.Start(); err != nil {
			return err
		}
		defer d.Close()
		target = d.Addr()
		log.Printf("embedded daemon on %s (store %s, %d workers)", target, storeDir, *workers)
	}

	// Small replay campaigns with distinct seeds: real scheduling and
	// persistence work per submission, trivial per-campaign compute.
	var specs []json.RawMessage
	for i := 0; i < 8; i++ {
		specs = append(specs, json.RawMessage(fmt.Sprintf(
			`{"version":1,"name":"loadtest-%d","mode":"replay","policy":{"name":"maxsigma"},"seed":%d,"max_iterations":%d,"replay":{"n_init":8,"n_test":20}}`,
			i, i+1, *iters)))
	}

	rep, err := serve.RunLoadTest(serve.LoadConfig{
		Addr:         target,
		Specs:        specs,
		Tenants:      strings.Split(*tenants, ","),
		Campaigns:    *campaigns,
		Submitters:   *submitters,
		Pollers:      *pollers,
		P99SubmitMax: time.Duration(*p99Submit * float64(time.Millisecond)),
		P99PollMax:   time.Duration(*p99Poll * float64(time.Millisecond)),
		Logf:         log.Printf,
	})
	if err != nil {
		return err
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		log.Printf("report written to %s", *out)
	}
	if err := rep.Table().Write(stdout); err != nil {
		return err
	}
	for _, g := range rep.Gates {
		verdict := "ok"
		if !g.Passed {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(stdout, "gate %-12s limit %8.1fms  actual %8.2fms  %s\n", g.Name, g.LimitMs, g.ActualMs, verdict)
	}
	if rep.Failed > 0 {
		log.Printf("%d campaigns did not finish in state done", rep.Failed)
	}
	if !rep.Passed {
		return errNotPassed
	}
	return nil
}
