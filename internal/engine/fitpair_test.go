package engine

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/gp"
	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// fitWorkerCounts are the mat worker settings the concurrent-fit pins
// compare: one (both fits on the caller, cost first), two, GOMAXPROCS.
func fitWorkerCounts() []int {
	out := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		out = append(out, p)
	}
	return out
}

// A sparse replay campaign refits both surrogates every few selections,
// through Absorb (q = 1) and Refit (q > 1); the two fits run side by side
// whenever there is more than one worker. Every trajectory must be
// byte-identical to the one-worker run.
func TestFitPairSparseReplayWorkerInvariant(t *testing.T) {
	ds := synthDS(160, 61)
	seq := replaySpec("fp/sparse", "maxsigma", 7, 20, 18)
	seq.Model = &ModelSpec{Name: ModelSparse, Inducing: 12}
	seq.HyperoptEvery = 3
	batch := seq
	batch.Name = "fp/sparse-batch"
	br := *seq.Replay
	br.Batch = &BatchSelectSpec{Q: 2}
	batch.Replay = &br
	exact := replaySpec("fp/exact", "rgma", 7, 10, 10)
	exact.HyperoptEvery = 3
	for _, spec := range []CampaignSpec{seq, batch, exact} {
		var want []byte
		for i, w := range fitWorkerCounts() {
			prev := mat.SetWorkers(w)
			tr, err := RunReplaySpec(ds, spec)
			mat.SetWorkers(prev)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", spec.Name, w, err)
			}
			got, err := json.Marshal(tr)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = got
				continue
			}
			if string(got) != string(want) {
				t.Fatalf("%s: trajectory at %d workers differs from the one-worker run", spec.Name, w)
			}
		}
	}
}

// failModel is a surrogate whose Fit and Refit fail on demand, for the
// error-precedence pins.
type failModel struct {
	gp.Model
	failFit, failRefit bool
	name               string
}

func (m *failModel) Fit(x *mat.Dense, y []float64) error {
	if m.failFit {
		return errors.New(m.name + " fit refused")
	}
	return m.Model.Fit(x, y)
}

func (m *failModel) Refit() error {
	if m.failRefit {
		return errors.New(m.name + " refit refused")
	}
	return m.Model.Refit()
}

// The cost and memory fits run concurrently, but when both fail the cost
// error is the one reported, as when they ran one after the other; a
// memory failure alone is reported as such.
func TestFitPairCostErrorWins(t *testing.T) {
	ds := synthDS(80, 62)
	cases := []struct {
		name                string
		costFit, memFit     bool
		costRefit, memRefit bool
		q                   int
		want                string
	}{
		{name: "initial both", costFit: true, memFit: true, q: 1, want: "initial cost fit: cost fit refused"},
		{name: "initial memory", memFit: true, q: 1, want: "initial memory fit: mem fit refused"},
		{name: "absorb both", costRefit: true, memRefit: true, q: 1, want: "cost refit after 3 selections: cost refit refused"},
		{name: "absorb memory", memRefit: true, q: 1, want: "memory refit after 3 selections: mem refit refused"},
		{name: "round both", costRefit: true, memRefit: true, q: 3, want: "cost refit after 3 selections: cost refit refused"},
	}
	for _, tc := range cases {
		for _, w := range fitWorkerCounts() {
			built := 0
			cfg := LoopConfig{
				Policy:        RGMA{},
				Seed:          3,
				MaxIterations: 9,
				HyperoptEvery: 3,
				NewModel: func() gp.Model {
					built++
					m := &failModel{Model: gp.New(kernel.NewRBF(0.5, 1), gp.Config{Noise: 0.1, NormalizeY: true})}
					if built == 1 {
						m.name, m.failFit, m.failRefit = "cost", tc.costFit, tc.costRefit
					} else {
						m.name, m.failFit, m.failRefit = "mem", tc.memFit, tc.memRefit
					}
					return m
				},
			}
			part, err := dataset.Split(ds, 10, 20, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			prev := mat.SetWorkers(w)
			if tc.q == 1 {
				_, err = RunReplay(ds, part, cfg)
			} else {
				_, err = RunReplayBatch(ds, part, cfg, tc.q, BatchIndependent)
			}
			mat.SetWorkers(prev)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s at %d workers: error %v, want one containing %q", tc.name, w, err, tc.want)
			}
		}
	}
}

// A panic in either fit is re-raised on the caller, so a sweep worker's
// recover still isolates the campaign; the cost body's panic comes first.
func TestFitPairReraisesPanic(t *testing.T) {
	for _, w := range fitWorkerCounts() {
		prev := mat.SetWorkers(w)
		got := func() (p any) {
			defer func() { p = recover() }()
			_ = FitPair(func() error { panic("cost") }, func() error { panic("mem") })
			return nil
		}()
		memOnly := func() (p any) {
			defer func() { p = recover() }()
			_ = FitPair(func() error { return nil }, func() error { panic("mem") })
			return nil
		}()
		mat.SetWorkers(prev)
		if !reflect.DeepEqual(got, "cost") || !reflect.DeepEqual(memOnly, "mem") {
			t.Fatalf("%d workers: re-raised %v and %v, want cost and mem", w, got, memOnly)
		}
	}
}
