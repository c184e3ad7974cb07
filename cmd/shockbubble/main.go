// Command shockbubble runs one adaptive shock-bubble simulation and renders
// the density field and refinement map, reproducing the paper's Fig 1 in a
// terminal (or as PGM images with -pgm).
//
// Usage:
//
//	shockbubble [-mx 8] [-maxlevel 4] [-r0 0.3] [-rhoin 0.1] [-t 0.3]
//	            [-frames 4] [-pgm prefix] [-levels]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"alamr/internal/amr"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shockbubble: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is shockbubble's body: it parses args, runs the simulation and
// renders each frame to stdout (and to PGM files with -pgm).
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("shockbubble", flag.ExitOnError)
	mx := fs.Int("mx", 8, "cells per patch edge")
	maxLevel := fs.Int("maxlevel", 4, "maximum refinement level")
	r0 := fs.Float64("r0", 0.3, "bubble radius")
	rhoin := fs.Float64("rhoin", 0.1, "bubble density")
	tEnd := fs.Float64("t", 0.3, "simulation end time")
	frames := fs.Int("frames", 4, "number of rendered frames")
	width := fs.Int("width", 96, "render width in characters")
	pgm := fs.String("pgm", "", "write PGM images with this filename prefix")
	levels := fs.Bool("levels", false, "also render the refinement-level map")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sb := amr.ShockBubble{R0: *r0, RhoIn: *rhoin}
	if err := sb.Validate(); err != nil {
		return err
	}
	cfg := sb.DefaultDomain(*mx, *maxLevel)
	mesh, err := amr.NewMesh(cfg)
	if err != nil {
		return err
	}

	render := func(frame int) error {
		fmt.Fprintf(stdout, "\nt = %.4f  leaves=%d (per level %v)\n", mesh.Time(), mesh.NumLeaves(), mesh.PatchesPerLevel())
		fmt.Fprint(stdout, mesh.RenderASCII(*width, *width/4))
		if *levels {
			fmt.Fprintln(stdout, "refinement levels:")
			fmt.Fprint(stdout, mesh.RenderLevels(*width, *width/4))
		}
		if *pgm != "" {
			name := fmt.Sprintf("%s_%02d.pgm", *pgm, frame)
			if err := os.WriteFile(name, []byte(mesh.WritePGM(4**width, *width)), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", name)
		}
		return nil
	}

	if err := render(0); err != nil {
		return err
	}
	for f := 1; f <= *frames; f++ {
		target := *tEnd * float64(f) / float64(*frames)
		for mesh.Time() < target {
			dt := mesh.MaxStableDt()
			if mesh.Time()+dt > target {
				dt = target - mesh.Time()
			}
			if err := mesh.Step(dt); err != nil {
				return fmt.Errorf("step failed at t=%g: %w", mesh.Time(), err)
			}
		}
		if err := render(f); err != nil {
			return err
		}
	}

	st := mesh.Stats()
	fmt.Fprintf(stdout, "\nwork: steps=%d cellUpdates=%d regrids=%d peakPatches=%d\n",
		st.Steps, st.CellUpdates, st.Regrids, st.PeakPatches)
	return nil
}
