package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"alamr/internal/serve"
)

// TestLoadTestSmoke runs al-loadtest against its embedded daemon on the
// committed dataset with a small load and checks that the report it writes
// parses and that every campaign finished. The latency gates are off
// (-p99-*-ms 0): `make serve-smoke` keeps them, and a unit test on a shared
// machine must not fail on scheduling noise.
func TestLoadTestSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	err := run([]string{
		"-data", "../../dataset.csv",
		"-campaigns", "4", "-submitters", "2", "-pollers", "2", "-iters", "1", "-workers", "1",
		"-p99-submit-ms", "0", "-p99-poll-ms", "0",
		"-out", out,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep serve.LoadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Campaigns != 4 || rep.Failed != 0 || !rep.Passed {
		t.Fatalf("report: %d campaigns, %d failed, passed %v; want 4, 0, true", rep.Campaigns, rep.Failed, rep.Passed)
	}
}
