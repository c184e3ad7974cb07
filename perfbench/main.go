// Command perfbench is the repository's end-to-end benchmark. It drives
// campaigns only through the program's public entry points — the engine's
// spec runner and the serve daemon over HTTP — checks that their results
// are correct, and prints the metrics BENCHMARK.json names.
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload pool-1e5 --seed 1 --seconds 50 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it measures half the time untraced and half with the obs
// registry enabled, and reports the per-layer breakdown folded from the
// registry and from the benchmark's own campaign and serve-call spans.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the full
// report (provenance, every metric with its sample count, layer shares).
// A correctness-gate failure exits non-zero without printing a result.
// NOTES.md explains the workloads and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
)

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	workload := fs.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "workload seed; the program sees only the inputs generated from it")
	seconds := fs.Int("seconds", 50, "how long the measurement runs, in whole units of work that cover every input set twice")
	trace := fs.Int("trace", 0, "1 adds a traced phase and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[*workload]; !ok {
		return config{}, fmt.Errorf("unknown workload %q (want one of %v)", *workload, workloadNames())
	}
	if *seconds < 1 {
		return config{}, fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return config{workload: *workload, seed: *seed, seconds: float64(*seconds), trace: *trace == 1}, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		log.Fatal(err)
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		log.Fatal(err)
	}
	rep, res, err := run(cfg, work)
	if rmErr := os.RemoveAll(work); rmErr != nil {
		log.Printf("removing %s: %v", work, rmErr)
	}
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, rep, res); err != nil {
		log.Fatal(err)
	}
}

// buildDir holds everything a run writes, inside the checkout.
const buildDir = ".bench_build"

// emit prints the full report line, then the result line the driver reads.
func emit(w io.Writer, rep *report, res *result) error {
	for _, v := range []any{map[string]any{"report": rep}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return fmt.Errorf("encoding output: %w", err)
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return err
		}
	}
	return nil
}
