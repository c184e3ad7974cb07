package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"alamr/internal/dataset"
)

// TestAmrGenSmoke generates a small campaign at a coarse reference
// resolution and checks that Table I is printed and that the CSV written
// to -o loads back with every job.
func TestAmrGenSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds.csv")
	var stdout bytes.Buffer
	err := run([]string{"-jobs", "24", "-unique", "20", "-refnx", "32", "-tend", "0.05", "-snaps", "2", "-o", out}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "Table I:") {
		t.Fatalf("Table I not printed; stdout:\n%s", stdout.String())
	}
	ds, err := dataset.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 24 {
		t.Fatalf("the CSV loads back with %d jobs, want 24", ds.Len())
	}
}
