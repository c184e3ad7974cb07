package engine

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"alamr/internal/stats"
)

// The golden_pr5 tests pin fixed-seed trajectories captured from the
// pre-engine loop implementations (PR 5). They were generated by running
// the suite once with GOLDEN_UPDATE=1 before the refactor; afterwards any
// byte-level divergence in the serialized trajectory fails the test, so
// the unified engine loop is provably behavior-preserving.
const goldenDir = "../../results/golden_pr5"

// goldenCheck serializes got and compares it byte-for-byte against the
// pinned file. GOLDEN_UPDATE=1 rewrites the pin instead (only meaningful
// on the pre-refactor tree or to intentionally re-baseline).
func goldenCheck(t *testing.T, name string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join(goldenDir, name+".json")
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with GOLDEN_UPDATE=1 go test): %v", err)
	}
	if !bytes.Equal(data, want) {
		i := 0
		for i < len(data) && i < len(want) && data[i] == want[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		clip := func(b []byte) string {
			if hi > len(b) {
				return string(b[lo:])
			}
			return string(b[lo:hi])
		}
		t.Fatalf("%s diverges from the pinned pre-refactor trajectory at byte %d:\n got ...%s...\nwant ...%s...",
			name, i, clip(data), clip(want))
	}
}

func TestGoldenReplaySequential(t *testing.T) {
	ds := synthDS(140, 91)
	part := smallPartition(t, ds, 12, 40, 5)
	limit := stats.Quantile(ds.Mem(nil), 0.8)
	for _, tc := range []struct {
		name   string
		policy Policy
	}{
		{"randuniform", RandUniform{}},
		{"maxsigma", MaxSigma{}},
		{"minpred", MinPred{}},
		{"randgoodness", RandGoodness{}},
		{"rgma", RGMA{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := RunReplay(ds, part, LoopConfig{
				Policy:        tc.policy,
				MaxIterations: 25,
				MemLimitMB:    limit,
				HyperoptEvery: 7,
				Seed:          101,
			})
			if err != nil {
				t.Fatal(err)
			}
			goldenCheck(t, "replay_seq_"+tc.name, tr)
		})
	}
}

func TestGoldenReplayBatch(t *testing.T) {
	ds := synthDS(140, 92)
	part := smallPartition(t, ds, 12, 40, 6)
	limit := stats.Quantile(ds.Mem(nil), 0.8)
	for _, tc := range []struct {
		name     string
		strategy BatchStrategy
	}{
		{"independent", BatchIndependent},
		{"constant_liar", BatchConstantLiar},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := RunReplayBatch(ds, part, LoopConfig{
				Policy:        RandGoodness{},
				MaxIterations: 24,
				MemLimitMB:    limit,
				HyperoptEvery: 8,
				Seed:          103,
			}, 3, tc.strategy)
			if err != nil {
				t.Fatal(err)
			}
			goldenCheck(t, "replay_batch_"+tc.name, tr)
		})
	}
}

func TestGoldenReplayStableStop(t *testing.T) {
	ds := synthDS(120, 93)
	part := smallPartition(t, ds, 30, 40, 10)
	tr, err := RunReplay(ds, part, LoopConfig{
		Policy:        MaxSigma{},
		MaxIterations: 60,
		Seed:          105,
		Stable:        &StableStopConfig{Window: 3, Tol: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "replay_stable_maxsigma", tr)
}

// TestGoldenReplayDirectScoring pins the direct-Predict scoring path (the
// directOnly wrapper of scorer_test.go) separately so the cache/no-cache
// equivalence survives the refactor at the golden level too (scorer_test.go
// asserts it structurally).
func TestGoldenReplayDirectScoring(t *testing.T) {
	ds := synthDS(140, 91)
	part := smallPartition(t, ds, 12, 40, 5)
	limit := stats.Quantile(ds.Mem(nil), 0.8)
	tr, err := RunReplay(ds, part, LoopConfig{
		Policy:        RGMA{},
		MaxIterations: 25,
		MemLimitMB:    limit,
		HyperoptEvery: 7,
		Seed:          101,
		NewModel:      newDirectExact,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Same seed/partition as the cached rgma pin: the two paths must agree.
	goldenCheck(t, "replay_seq_rgma", tr)
}
