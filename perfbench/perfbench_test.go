package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"alamr/internal/mat"
	"alamr/internal/obs"
)

// TestMain runs the tests from the repository root, the benchmark's working
// directory, so they read dataset.csv, examples/specs and BENCHMARK.json as
// a run does.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestReportedPercentiles(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want []float64
	}{
		{1, []float64{50}},
		{19, []float64{50}},
		{20, []float64{50}},
		{99, []float64{50}},
		{100, []float64{50, 90}},
		{999, []float64{50, 90}},
		{1000, []float64{50, 99}},
		{9999, []float64{50, 99}},
		{10000, []float64{50, 99.9}},
	} {
		if got := reportedPercentiles(tc.n); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("reportedPercentiles(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	m := metrics{}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	m.setPercentiles("campaign_s", xs, 1, "s")
	if got := m["campaign_s.p50"]; got.Value != 49.5 || got.N != 100 {
		t.Errorf("p50 of 0..99 = %+v, want 49.5 over 100 samples", got)
	}
	if got := m["campaign_s.p90"]; math.Abs(got.Value-89.1) > 1e-9 {
		t.Errorf("p90 of 0..99 = %v, want 89.1", got.Value)
	}
	if len(m) != 2 {
		t.Errorf("100 samples reported %d percentiles, want p50 and p90: %v", len(m), m)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := percentileName(99.9); got != "p99.9" {
		t.Errorf("percentileName(99.9) = %q", got)
	}
}

// TestSelfTimeFoldConcurrentCampaigns folds two overlapping campaigns: the
// registry's phase histograms hold both campaigns' spans with no campaign
// id, so loop_other_s must be Σ campaign wall − queue wait − Σ phases, with
// each campaign counting its own duration rather than the wall-clock union
// of the overlap.
func TestSelfTimeFoldConcurrentCampaigns(t *testing.T) {
	reg := obs.NewRegistry()
	observe := func(name string, vs ...float64) {
		h := reg.Histogram(name, "", obs.LatencyBuckets)
		for _, v := range vs {
			h.Observe(v)
		}
	}
	ph := func(p string) string { return obs.Labeled(obs.MetricLoopPhaseSeconds, "phase", p) }
	// Campaign a runs 0–10 s, campaign b 4–12 s, after a 1 s queue wait:
	// 18 campaign-seconds in 12 wall-clock seconds.
	observe(ph(obs.PhaseFit), 0.5, 0.5)
	observe(ph(obs.PhaseHyperopt), 2, 1)
	observe(ph(obs.PhaseScore), 3, 4)
	observe(ph(obs.PhaseSelect), 0.25, 0.25)
	observe(ph(obs.PhaseRun), 1, 1)
	observe(ph(obs.PhaseFeed), 0.5, 0.5)
	observe(obs.MetricPoolShardScoreSecs, 6, 4)
	reg.Counter(obs.MetricPoolShardsScored, "").Add(30)
	reg.Counter(obs.MetricPoolShardsPruned, "").Add(10)
	traced := phase{wall: 12, campaigns: []campaign{
		{key: "a", wall: 10, queueWait: -1, selections: 5},
		{key: "b", wall: 8, queueWait: 1, selections: 5},
	}}
	m := layerMetrics(reg.TakeSnapshot(), traced, traced)

	// 18 − 1 − (1 + 3 + 7 + 0.5 + 2 + 1) = 2.5; the 12 s union would give −3.5.
	if got := m["engine.loop_other_s"].Value; math.Abs(got-2.5) > 1e-12 {
		t.Errorf("engine.loop_other_s = %v, want 2.5", got)
	}
	if got := m["engine.score_s"].Value; got != 7 {
		t.Errorf("engine.score_s = %v, want 7", got)
	}
	if got, want := m["engine.lane_util"].Value, 10/(7*float64(mat.Workers())); math.Abs(got-want) > 1e-12 {
		t.Errorf("engine.lane_util = %v, want %v", got, want)
	}
	if got := m["engine.prune_ratio"].Value; got != 0.25 {
		t.Errorf("engine.prune_ratio = %v, want 0.25", got)
	}
	if got := m["serve.queue_wait_s.p50"].Value; got != 1 {
		t.Errorf("serve.queue_wait_s.p50 = %v, want 1", got)
	}
	if got := m["process.trace_overhead"].Value; got != 0 {
		t.Errorf("process.trace_overhead of identical phases = %v, want 0", got)
	}
	sh := shares(m, traced)
	if got := sh["engine.score_s"]; math.Abs(got-7.0/18) > 1e-12 {
		t.Errorf("score share = %v, want 7/18 of campaign seconds", got)
	}
	if _, err := m.values(catalogPerLayer); err != nil {
		t.Error(err)
	}
}

// metricName is the pattern every reported name must follow.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "-lead", ".lead", "a b", "a/b", "p50%", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), catalogEndToEnd...), catalogPerLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("catalog name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("catalog name %q listed twice", d.name)
		}
		seen[d.name] = true
	}
	for _, p := range percentiles {
		if name := "campaign_s." + percentileName(p); !metricName.MatchString(name) {
			t.Errorf("percentile metric %q does not match the pattern", name)
		}
	}
	for name := range workloads {
		if !metricName.MatchString(name) {
			t.Errorf("workload name %q does not match the pattern", name)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// program emits in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(got), len(want))
			return
		}
		for i, d := range got {
			if d.Name != want[i].name || d.Unit != want[i].unit || d.Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program emits %+v", kind, i, d, want[i])
			}
		}
	}
	check("end_to_end", b.EndToEnd, catalogEndToEnd)
	check("per_layer", b.PerLayer, catalogPerLayer)
	var maxBound float64
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		maxBound = math.Max(maxBound, d.Bound)
	}
	if b.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", b.EndToEnd[0].Bound, maxBound)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, the program runs %v", names, workloadNames())
	}
}

func TestGenPoolDeterministic(t *testing.T) {
	csv := func(seed int64) []byte {
		ds, err := genPool(seed)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Len() != 100000 {
			t.Fatalf("pool has %d jobs, want 100000", ds.Len())
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := csv(3), csv(3)
	if !bytes.Equal(a, b) {
		t.Fatal("two generations with seed 3 differ")
	}
	if bytes.Equal(a, csv(4)) {
		t.Fatal("seeds 3 and 4 generated the same pool")
	}
}

// newTestServe is the serve-online workload with a short experiment budget,
// set up against a daemon in a temporary store.
func newTestServe(t *testing.T, experiments int) *serveOnline {
	t.Helper()
	wl, err := newServeOnline(7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := wl.(*serveOnline)
	for _, batch := range w.batches {
		for i := range batch {
			s := &batch[i]
			o := *s.spec.Online
			o.MaxExperiments = experiments
			s.spec.Online = &o
			if s.raw, err = s.spec.Marshal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := w.close(); err != nil {
			t.Error(err)
		}
	})
	return w
}

// TestGateCatchesSharedCheckpoint submits the canonical online spec with
// its checkpoint_path kept, so campaigns share one checkpoint file. The
// second campaign resumes the first one's finished checkpoint and returns
// its result bit for bit without running; the gate must fail both.
func TestGateCatchesSharedCheckpoint(t *testing.T) {
	w := newTestServe(t, 3)
	if _, err := w.unit(0); err != nil {
		t.Fatalf("isolated batch failed the gate: %v", err)
	}
	if err := w.check(); err != nil {
		t.Fatalf("served result differs from the direct run: %v", err)
	}

	var err error
	shared := w.batches[0][0]
	o := *shared.spec.Online
	o.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
	shared.spec.Online = &o
	if shared.raw, err = shared.spec.Marshal(); err != nil {
		t.Fatal(err)
	}
	run := func() (campaign, error) {
		s := shared
		if err := w.submit(&s); err != nil {
			t.Fatal(err)
		}
		if err := w.follow(&s); err != nil {
			t.Fatal(err)
		}
		return w.collect(&s)
	}
	first, err := run()
	if err == nil || !strings.Contains(err.Error(), "checkpoints to") {
		t.Fatalf("gate passed a campaign on a shared checkpoint path: %v", err)
	}
	resumed, err := run()
	if err == nil || !strings.Contains(err.Error(), "checkpoints to") {
		t.Fatalf("gate passed a campaign resumed from another's checkpoint: %v", err)
	}
	if first.digest != resumed.digest {
		t.Fatal("resumed campaign's result differs from the run it resumed; the scenario did not resume")
	}
	if _, err := os.Stat(w.store.CheckpointPath(w.last[0].id)); err != nil {
		t.Errorf("isolated campaign left no checkpoint in its store directory: %v", err)
	}
}

// TestWorkloadSpecsValid builds every workload's campaigns from the
// canonical inputs.
func TestWorkloadSpecsValid(t *testing.T) {
	for _, name := range workloadNames() {
		if _, err := workloads[name](1, t.TempDir()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
