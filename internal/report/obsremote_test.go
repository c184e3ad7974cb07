package report

import (
	"strings"
	"testing"
	"time"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/faults"
	"alamr/internal/obs"
	"alamr/internal/online"
	"alamr/internal/remotelab"
)

// startRemoteWorker runs an in-process fleet member against the dispatcher
// through the public API only; cleanup closes the dispatcher (idempotent)
// and waits the worker goroutine out.
func startRemoteWorker(t *testing.T, d *remotelab.Dispatcher, name string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		remotelab.RunWorker(d.Addr(), remotelab.WorkerConfig{
			Name:      name,
			Executor:  remotelab.SynthLab{},
			Heartbeat: 100 * time.Millisecond,
		})
	}()
	t.Cleanup(func() {
		d.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("remote worker goroutine leaked past dispatcher close")
		}
	})
}

// TestObsSummaryRemoteFleetReconciles runs a campaign against a two-worker
// remote fleet with the dispatcher's RSS limit low enough to OOM-kill the
// big-footprint init configuration, then checks the per-worker obs series
// agree with the campaign's own Health ledger — and that ObsSummary
// surfaces both the fleet totals and the per-worker labeled series.
func TestObsSummaryRemoteFleetReconciles(t *testing.T) {
	defer obs.Disable()
	reg := obs.NewRegistry()
	obs.Enable(reg, nil)

	d, err := remotelab.NewDispatcher(remotelab.Config{
		Seed:       23,
		RSSLimitMB: 0.15,
		Candidates: dataset.AllCombos()[:96],
		Heartbeat:  2 * time.Second,
		Wait:       5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	startRemoteWorker(t, d, "r0")
	startRemoteWorker(t, d, "r1")
	deadline := time.Now().Add(5 * time.Second)
	for len(d.Workers()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 2 workers joined", len(d.Workers()))
		}
		time.Sleep(5 * time.Millisecond)
	}

	res, err := online.Run(d, online.Config{
		Policy: engine.RGMA{},
		// The second init configuration's analytic footprint (~0.2 MB)
		// exceeds the fleet's 0.15 MB RSS limit, so the warm-up yields one
		// clean observation and one censored kill.
		InitDesign: []dataset.Combo{
			{P: 4, Mx: 8, MaxLevel: 3, R0: 0.3, RhoIn: 0.1},
			{P: 4, Mx: 8, MaxLevel: 6, R0: 0.3, RhoIn: 0.1},
		},
		MaxExperiments: 6,
		MemLimitMB:     0.5,
		Seed:           23,
		Retry:          faults.RetryPolicy{MaxAttempts: 6},
	})
	if err != nil {
		t.Fatalf("remote campaign failed: %v", err)
	}

	h := res.Health
	if !h.Consistent() {
		t.Fatalf("health ledger does not balance: %+v", h)
	}
	if h.Censored < 1 {
		t.Fatalf("RSS limit censored nothing: %+v", h)
	}

	// Fleet totals against the ledger: every attempt was dispatched, every
	// dispatch was answered (no losses on a healthy fleet), and censored
	// kills are completed dispatches — the worker reported them.
	dispatched, _ := reg.CounterValue(obs.MetricRemoteJobsDispatched)
	completed, _ := reg.CounterValue(obs.MetricRemoteJobsCompleted)
	lost, _ := reg.CounterValue(obs.MetricRemoteJobsLost)
	if int64(h.Attempts) != dispatched {
		t.Fatalf("ledger attempts=%d != obs dispatched=%d", h.Attempts, dispatched)
	}
	if lost != 0 || completed != dispatched {
		t.Fatalf("healthy fleet lost jobs: dispatched=%d completed=%d lost=%d", dispatched, completed, lost)
	}

	// Per-worker series partition the fleet totals.
	r0, _ := reg.CounterValue(obs.Labeled(obs.MetricRemoteJobsDispatched, obs.LabelWorker, "r0"))
	r1, _ := reg.CounterValue(obs.Labeled(obs.MetricRemoteJobsDispatched, obs.LabelWorker, "r1"))
	if r0+r1 != dispatched {
		t.Fatalf("per-worker dispatched %d+%d != fleet total %d", r0, r1, dispatched)
	}
	if live, ok := reg.GaugeValue(obs.MetricRemoteWorkersLive); !ok || live != 2 {
		t.Fatalf("live worker gauge = %v with two workers up", live)
	}

	// And the digest renders all of it: fleet totals, the per-worker
	// labeled series, and the heartbeat histogram.
	tab := ObsSummary(reg)
	if tab == nil {
		t.Fatal("ObsSummary returned nil for a live registry")
	}
	out := tab.String()
	for _, want := range []string{
		obs.MetricRemoteJobsDispatched,
		obs.Labeled(obs.MetricRemoteJobsDispatched, obs.LabelWorker, "r0"),
		obs.Labeled(obs.MetricRemoteJobsCompleted, obs.LabelWorker, "r1"),
		obs.MetricRemoteWorkersLive,
		obs.MetricRemoteHeartbeat,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("ObsSummary missing %q:\n%s", want, out)
		}
	}
}
