// Command al-serve runs the campaign daemon: a long-lived HTTP service that
// accepts declarative CampaignSpec submissions, schedules them on a bounded
// worker pool with per-tenant fair-share and priority lanes, and persists
// every campaign (spec, state, result) in an on-disk store. A daemon killed
// at any point — including SIGKILL mid-campaign — resumes its in-flight
// work on restart and produces results bitwise identical to an uninterrupted
// run (online campaigns resume from their checkpoint; replay campaigns are
// deterministic re-runs).
//
// The HTTP API is documented in API.md. In short:
//
//	POST   /v1/campaigns             submit {"tenant","priority","spec"}
//	GET    /v1/campaigns?tenant=acme list campaign states
//	GET    /v1/campaigns/{id}        spec + state + result
//	GET    /v1/campaigns/{id}/status state only; ?seq=N&wait_ms=M long-polls
//	DELETE /v1/campaigns/{id}        cancel (stops a running campaign at the
//	                                 next round boundary, keeps the partial
//	                                 result)
//
// Usage:
//
//	al-serve [-addr 127.0.0.1:8765] [-store alamr-serve] [-data dataset.csv]
//	         [-workers N] [-queue-cap 256]
//	         [-metrics-addr 127.0.0.1:9090] [-trace-out trace.jsonl]
//
// -data backs replay-mode campaigns and the "replay" lab; without it the
// daemon still serves online campaigns against the simulator ("sim") and
// remote ("remote") labs and rejects dataset-dependent submissions with 400.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"alamr/internal/dataset"
	"alamr/internal/obs"
	_ "alamr/internal/online" // registers the online mode runner + sim lab
	_ "alamr/internal/remotelab"
	"alamr/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("al-serve: ")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var usage usageError
	if err := run(os.Args[1:], sig, nil); errors.As(err, &usage) {
		fmt.Fprintln(os.Stderr, "al-serve:", err)
		os.Exit(2)
	} else if err != nil {
		log.Fatal(err)
	}
}

// usageError is an invalid flag value; main exits 2 on it, as on a flag
// parse error.
type usageError string

func (e usageError) Error() string { return string(e) }

// run is al-serve's body: it parses args, starts the daemon, sends its
// bound listen address on ready (when ready is not nil), and serves until
// stop delivers a signal; then it closes the daemon, in-flight campaigns
// checkpointing and requeueing.
func run(args []string, stop <-chan os.Signal, ready chan<- string) error {
	fs := flag.NewFlagSet("al-serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8765", "listen address for the campaign API")
	store := fs.String("store", "alamr-serve", "campaign store directory (created if absent)")
	data := fs.String("data", "", "dataset CSV backing replay campaigns and the replay lab (optional)")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent campaign workers")
	queueCap := fs.Int("queue-cap", 256, "queued-campaign bound before submissions get 429 (negative = unbounded)")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address")
	traceOut := fs.String("trace-out", "", "write span trace events as JSONL to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *workers < 1 {
		return usageError("-workers must be at least 1")
	}

	bundle, err := obs.Boot(*metricsAddr, *traceOut)
	if err != nil {
		return fmt.Errorf("observability setup: %w", err)
	}
	defer bundle.Close()

	var ds *dataset.Dataset
	if *data != "" {
		if ds, err = dataset.LoadFile(*data); err != nil {
			return fmt.Errorf("loading dataset: %w", err)
		}
	}

	d, err := serve.New(serve.Config{
		StoreDir: *store,
		Addr:     *addr,
		Workers:  *workers,
		QueueCap: *queueCap,
		Dataset:  ds,
		Logf:     log.Printf,
	})
	if err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	if ready != nil {
		ready <- d.Addr()
	}

	s := <-stop
	log.Printf("%s: shutting down (in-flight campaigns checkpoint and requeue)", s)
	return d.Close()
}
