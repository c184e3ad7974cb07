package report

import (
	"math"
	"strings"
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/faults"
	"alamr/internal/obs"
	"alamr/internal/online"
)

// TestHealthTableCensoredFatalGolden pins the full rendering of a mixed
// censored+fatal ledger — every row, the canonical class order, and the
// column alignment.
func TestHealthTableCensoredFatalGolden(t *testing.T) {
	h := online.Health{
		Attempts:      9,
		Successes:     4,
		Retries:       2,
		Censored:      2,
		Fatal:         1,
		FaultsByClass: map[string]int{"oom": 1, "timeout": 1, "transient": 2, "unknown": 1},
		LostNHByClass: map[string]float64{"oom": 0.75, "timeout": 0.5, "transient": 0.125},
		LostNH:        1.375,
		BackoffSec:    3.25,
	}
	golden := `metric           count     node-hours lost
------------------------------------------
attempts         9
successes        4
retries          2
censored         2
fatal            1
fault:oom        1         0.75
fault:timeout    1         0.5
fault:transient  2         0.125
fault:unknown    1         0
total lost                 1.375
backoff (sec)              3.25
ledger           balanced
`
	if got := HealthTable(h).String(); got != golden {
		t.Fatalf("HealthTable golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

func TestObsSummaryNilRegistry(t *testing.T) {
	if tab := ObsSummary(nil); tab != nil {
		t.Fatalf("ObsSummary(nil) = %v, want nil", tab)
	}
}

// TestObsSummaryStreamPoolGating: the streamed-pool series render as a
// unit keyed on the scored counter. A campaign that never streamed must
// not show a pruning section even if stale stream gauges linger in the
// registry (a restored checkpoint can carry one); a campaign that streamed
// must show the full scored/pruned partition, a zero pruned count
// included, so the reconcile invariant is readable.
func TestObsSummaryStreamPoolGating(t *testing.T) {
	streamSeries := []string{
		obs.MetricPoolShardsScored,
		obs.MetricPoolShardsPruned,
		obs.MetricPoolCandidatesScored,
		obs.MetricPoolCandidatesPruned,
		obs.MetricPoolShardsInflight,
		obs.MetricPoolStreamLive,
		obs.MetricPoolShardScoreSecs,
		obs.Labeled(obs.MetricPoolWorkerShards, obs.LabelWorker, "0"),
	}

	// Never streamed: zero scored shards, but a stale live gauge, an idle
	// in-flight gauge, and a leftover per-worker counter are all present.
	reg := obs.NewRegistry()
	reg.Counter(obs.MetricLoopIterations, "iters").Add(4)
	reg.Gauge(obs.MetricPoolStreamLive, "live").Set(512)
	reg.Gauge(obs.MetricPoolShardsInflight, "inflight").Set(0)
	reg.Counter(obs.Labeled(obs.MetricPoolWorkerShards, obs.LabelWorker, "0"), "per-worker").Add(3)
	reg.Histogram(obs.MetricPoolShardScoreSecs, "latency", obs.LatencyBuckets).Observe(0.01)
	out := ObsSummary(reg).String()
	for _, name := range streamSeries {
		if strings.Contains(out, name) {
			t.Errorf("summary shows stream series %s for a campaign that never streamed:\n%s", name, out)
		}
	}
	if !strings.Contains(out, obs.MetricLoopIterations) {
		t.Fatalf("summary dropped a non-stream series:\n%s", out)
	}

	// Streamed with nothing pruned: the pruned row must appear showing 0 —
	// its absence would be unreadable next to a non-zero scored count.
	reg = obs.NewRegistry()
	reg.Counter(obs.MetricPoolShardsScored, "scored").Add(64)
	reg.Counter(obs.MetricPoolShardsPruned, "pruned").Add(0)
	reg.Counter(obs.MetricPoolCandidatesScored, "scored").Add(64 * 4096)
	reg.Counter(obs.MetricPoolCandidatesPruned, "pruned").Add(0)
	reg.Gauge(obs.MetricPoolStreamLive, "live").Set(512)
	tab := ObsSummary(reg)
	out = tab.String()
	for _, want := range []string{obs.MetricPoolShardsScored, obs.MetricPoolShardsPruned,
		obs.MetricPoolCandidatesScored, obs.MetricPoolCandidatesPruned, obs.MetricPoolStreamLive} {
		if !strings.Contains(out, want) {
			t.Errorf("streamed summary missing %s:\n%s", want, out)
		}
	}
	for _, pruned := range []string{obs.MetricPoolShardsPruned, obs.MetricPoolCandidatesPruned} {
		prunedRow := false
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, pruned) && strings.HasSuffix(strings.TrimSpace(line), " 0") {
				prunedRow = true
			}
		}
		if !prunedRow {
			t.Errorf("%s row does not show an explicit 0:\n%s", pruned, out)
		}
	}
}

// analyticLab is a deterministic formula-backed lab, cheap enough to drive
// a full faulty campaign inside a unit test.
type analyticLab struct{ combos []dataset.Combo }

func (l *analyticLab) Candidates() []dataset.Combo { return l.combos }

func (l *analyticLab) Run(c dataset.Combo) (dataset.Job, error) {
	wall := 2.0 * math.Pow(float64(c.Mx)/8, 1.5) * math.Pow(2, float64(c.MaxLevel-3)) *
		(1 + c.R0) / (0.3 + c.RhoIn)
	return dataset.Job{
		P: c.P, Mx: c.Mx, MaxLevel: c.MaxLevel, R0: c.R0, RhoIn: c.RhoIn,
		WallSec: wall,
		CostNH:  wall * float64(c.P) / 3600,
		MemMB:   0.05 * float64(c.Mx*c.Mx) / 64 * math.Pow(2, float64(c.MaxLevel-3)) / math.Sqrt(float64(c.P)),
	}, nil
}

// TestObsSummaryReconcilesWithHealth runs a fault-injected campaign with
// observability enabled and checks the obs fault counters agree exactly
// with the campaign's own Health ledger — the two accounting systems are
// built independently (handles in faults.RunWithRetry vs. Health.absorb in
// the online runtime) and must never drift.
func TestObsSummaryReconcilesWithHealth(t *testing.T) {
	defer obs.Disable()
	reg := obs.NewRegistry()
	obs.Enable(reg, nil)

	lab := faults.MustFaultyLab(&analyticLab{combos: dataset.AllCombos()}, faults.LabConfig{
		Seed:       31,
		RSSLimitMB: 0.35,
		PTransient: 0.15,
		PCorrupt:   0.1,
	})
	res, err := online.Run(lab, online.Config{
		Policy:         engine.RGMA{},
		MaxExperiments: 14,
		MemLimitMB:     0.35,
		Seed:           31,
		Retry:          faults.RetryPolicy{MaxAttempts: 6},
	})
	if res == nil {
		t.Fatalf("campaign returned no result (err=%v)", err)
	}
	h := res.Health
	if !h.Consistent() {
		t.Fatalf("health ledger does not balance: %+v", h)
	}
	if h.Attempts <= h.Successes {
		t.Fatalf("fault cocktail injected nothing, reconciliation vacuous: %+v", h)
	}

	counter := func(name string) int64 {
		v, ok := reg.CounterValue(name)
		if !ok {
			t.Fatalf("counter %s not registered", name)
		}
		return v
	}
	checks := []struct {
		name string
		want int
	}{
		{obs.MetricFaultAttempts, h.Attempts},
		{obs.MetricFaultSuccesses, h.Successes},
		{obs.MetricFaultRetries, h.Retries},
		{obs.MetricFaultCensored, h.Censored},
		{obs.MetricFaultFatal, h.Fatal},
		{obs.MetricLoopIterations, len(res.CumCost)},
	}
	for _, c := range checks {
		if got := counter(c.name); got != int64(c.want) {
			t.Errorf("%s = %d, Health says %d", c.name, got, c.want)
		}
	}
	for cl, n := range h.FaultsByClass {
		if got := counter(obs.Labeled(obs.MetricFaultByClass, "class", cl)); got != int64(n) {
			t.Errorf("class %s = %d, Health says %d", cl, got, n)
		}
	}

	// The live gauges must equal the final post-hoc columns.
	if len(res.CumCost) > 0 {
		if cc, _ := reg.GaugeValue(obs.MetricCampaignCumCost); cc != res.CumCost[len(res.CumCost)-1] {
			t.Errorf("cum-cost gauge %g != final CC %g", cc, res.CumCost[len(res.CumCost)-1])
		}
		if cr, _ := reg.GaugeValue(obs.MetricCampaignCumRegret); cr != res.CumRegret[len(res.CumRegret)-1] {
			t.Errorf("cum-regret gauge %g != final CR %g", cr, res.CumRegret[len(res.CumRegret)-1])
		}
	}

	// And the rendered summary carries the reconciled counters.
	out := ObsSummary(reg).String()
	for _, want := range []string{
		obs.MetricFaultAttempts,
		obs.MetricCampaignCumCost,
		obs.MetricCheckpointWriteSeconds,
	} {
		// Histograms with no observations are omitted; checkpointing is off
		// in this campaign, so its timing series must NOT appear.
		if want == obs.MetricCheckpointWriteSeconds {
			if strings.Contains(out, want) {
				t.Errorf("summary shows idle histogram %s:\n%s", want, out)
			}
			continue
		}
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %s:\n%s", want, out)
		}
	}
}
