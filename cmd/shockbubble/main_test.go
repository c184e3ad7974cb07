package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestShockBubbleSmoke runs a tiny simulation to one frame past the start
// and checks that both PGM frames are written with the P2 magic.
func TestShockBubbleSmoke(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "f")
	if err := run([]string{"-mx", "4", "-maxlevel", "2", "-t", "0.01", "-frames", "1", "-pgm", prefix}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{prefix + "_00.pgm", prefix + "_01.pgm"} {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, []byte("P2")) {
			t.Fatalf("%s starts with %q, want the P2 magic", name, raw[:min(len(raw), 8)])
		}
	}
}
