// Command amr-gen regenerates the paper's measurement campaign: 600
// simulated FORESTCLAW shock-bubble jobs on the modeled Edison machine,
// written as a CSV dataset, with the Table I summary printed.
//
// Usage:
//
//	amr-gen [-o dataset.csv] [-seed 42] [-jobs 600] [-unique 525]
//	        [-refnx 128] [-tend 0.3] [-subcycle]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"alamr/internal/dataset"
	"alamr/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("amr-gen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is amr-gen's body: it parses args, generates the campaign, prints its
// Table I summary to stdout and writes the CSV to -o.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("amr-gen", flag.ExitOnError)
	out := fs.String("o", "dataset.csv", "output CSV path (empty to skip writing)")
	seed := fs.Int64("seed", 42, "campaign seed")
	jobs := fs.Int("jobs", 600, "total jobs (paper: 600)")
	unique := fs.Int("unique", 525, "distinct feature combinations (paper: 525)")
	refnx := fs.Int("refnx", 128, "reference-solution resolution")
	tend := fs.Float64("tend", 0.3, "reference-simulation end time")
	snaps := fs.Int("snaps", 12, "reference snapshots")
	subcycle := fs.Bool("subcycle", false, "emulate level-subcycled time stepping")
	if err := fs.Parse(args); err != nil {
		return err
	}

	t0 := time.Now()
	ds, err := dataset.Generate(dataset.GenConfig{
		Seed:      *seed,
		NumJobs:   *jobs,
		NumUnique: *unique,
		RefNx:     *refnx,
		RefTEnd:   *tend,
		RefSnaps:  *snaps,
		Subcycle:  *subcycle,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "generated %d jobs (%d unique combos) in %v\n\n", ds.Len(), ds.UniqueCombos(), time.Since(t0).Round(time.Millisecond))

	if _, err := experiments.TableI(experiments.Options{Dataset: ds, Out: stdout}); err != nil {
		return err
	}

	if *out != "" {
		if err := ds.SaveFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", *out)
	}
	return nil
}
