package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/online"
	"alamr/internal/serve"
	"alamr/internal/stats"
)

// serveOnline drives an embedded daemon with its default worker pool from
// one closed-loop client over HTTP: submit a batch of 2 × workers
// campaigns, alternating the canonical online-sim (rgma) and
// online-fidelity (costperinfo) specs across two tenants, and submit the
// next batch only once every campaign of this one is terminal.
type serveOnline struct {
	seed    int64
	work    string
	batches [serveInputs][]submission
	// last is the most recent batch as submitted, for check.
	last []submission

	daemon *serve.Daemon
	store  *serve.Store
	client *serve.Client
	starts int
	loads  []float64 // dataset.csv load times, one per set-up

	attempted, failed atomic.Int64
}

// submission is one campaign of a batch and what the client saw of it.
type submission struct {
	key, tenant string
	spec        engine.CampaignSpec
	raw         []byte

	id                      string
	seq                     int64
	submitAt, runAt, doneAt time.Time
	submitS                 float64
	state                   serve.State
	errMsg                  string
}

// serveInputs is how many distinct batches one run cycles through.
const serveInputs = 6

// pollers is how many campaigns the client follows at once: each long-poll
// holds one connection, and the workload keeps to two.
const pollers = 2

// statusWait is the long-poll hold per status request; campaignTimeout
// bounds how long the client waits for one campaign, well inside a run's
// time limit.
const (
	statusWait      = 10 * time.Second
	campaignTimeout = 90 * time.Second
)

func newServeOnline(seed int64, work string) (workload, error) {
	var bases [2]engine.CampaignSpec
	for i, f := range []string{"examples/specs/online-sim.json", "examples/specs/online-fidelity.json"} {
		spec, err := engine.LoadCampaignSpec(f)
		if err != nil {
			return nil, err
		}
		bases[i] = spec
	}
	w := &serveOnline{seed: seed, work: work}
	n := 2 * runtime.GOMAXPROCS(0)
	for b := range w.batches {
		for j := 0; j < n; j++ {
			spec := bases[j%2]
			o := *spec.Online
			// Cleared, so the daemon injects the campaign's own store path;
			// campaigns sharing a checkpoint resume each other's finished runs.
			o.CheckpointPath = ""
			spec.Online = &o
			spec.Seed = stats.SplitSeed(seed, b*n+j)
			raw, err := spec.Marshal()
			if err != nil {
				return nil, err
			}
			w.batches[b] = append(w.batches[b], submission{
				key:    fmt.Sprintf("%s-b%d-%d", spec.Name, b, j),
				tenant: []string{"tenant-a", "tenant-b"}[j/2%2],
				spec:   spec,
				raw:    raw,
			})
		}
	}
	return w, nil
}

// setup starts a fresh daemon the way al-serve -data does — loading
// dataset.csv, opening a fresh store — and waits until it answers a
// request.
func (w *serveOnline) setup() error {
	t0 := time.Now()
	ds, err := dataset.LoadFile("dataset.csv")
	if err != nil {
		return err
	}
	w.loads = append(w.loads, time.Since(t0).Seconds())
	w.starts++
	dir := filepath.Join(w.work, fmt.Sprintf("store-%d", w.starts))
	d, err := serve.New(serve.Config{StoreDir: dir, Addr: "127.0.0.1:0", Dataset: ds, Logf: func(string, ...any) {}})
	if err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	w.daemon = d
	if w.store, err = serve.OpenStore(dir); err != nil {
		return err
	}
	w.client = serve.NewClient(d.Addr())
	_, err = w.client.List("")
	w.count(err)
	return err
}

// count records one HTTP request and whether it failed or was refused.
func (w *serveOnline) count(err error) {
	w.attempted.Add(1)
	if err != nil {
		w.failed.Add(1)
	}
}

func (w *serveOnline) inputs() int { return len(w.batches) }

func (w *serveOnline) unit(u int) ([]campaign, error) {
	batch := w.batches[u%len(w.batches)]
	subs := make([]submission, len(batch))
	copy(subs, batch)
	for i := range subs {
		if err := w.submit(&subs[i]); err != nil {
			return nil, err
		}
	}
	var next atomic.Int64
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(subs) {
					return
				}
				errs[i] = w.follow(&subs[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	w.last = subs
	out := make([]campaign, len(subs))
	for i := range subs {
		c, err := w.collect(&subs[i])
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// submit posts one campaign, honouring 429 backpressure by waiting and
// resubmitting; every refusal counts as a failed request.
func (w *serveOnline) submit(s *submission) error {
	for {
		t0 := time.Now()
		m, err := w.client.Submit(s.tenant, "", s.raw)
		w.count(err)
		var api *serve.APIError
		if serve.IsBackpressure(err) && errors.As(err, &api) {
			time.Sleep(time.Duration(max(1, api.RetryAfter)) * time.Second)
			continue
		}
		if err != nil {
			return fmt.Errorf("gate: submitting %s: %w", s.key, err)
		}
		s.id, s.seq, s.submitAt, s.submitS = m.ID, m.Seq, t0, time.Since(t0).Seconds()
		return nil
	}
}

// follow long-polls one campaign until it is terminal, noting when the
// client first saw it running.
func (w *serveOnline) follow(s *submission) error {
	for {
		if time.Since(s.submitAt) > campaignTimeout {
			return fmt.Errorf("gate: campaign %s (%s) not terminal after %v", s.key, s.id, campaignTimeout)
		}
		m, err := w.client.Status(s.id, s.seq, statusWait)
		w.count(err)
		if err != nil {
			return fmt.Errorf("gate: following %s (%s): %w", s.key, s.id, err)
		}
		now := time.Now()
		if m.State == serve.StateRunning && s.runAt.IsZero() {
			s.runAt = now
		}
		if m.State.Terminal() {
			s.doneAt, s.state, s.errMsg = now, m.State, m.Error
			return nil
		}
		s.seq = m.Seq
	}
}

// collect fetches a terminal campaign's record as the caller would and
// checks it: done, within its experiment budget, and checkpointed to its
// own store path. On a failed check it still returns what it collected.
func (w *serveOnline) collect(s *submission) (campaign, error) {
	if s.state != serve.StateDone {
		return campaign{}, fmt.Errorf("gate: campaign %s (%s) ended %s: %s", s.key, s.id, s.state, s.errMsg)
	}
	d, err := w.client.Get(s.id)
	w.count(err)
	if err != nil {
		return campaign{}, fmt.Errorf("gate: fetching %s (%s): %w", s.key, s.id, err)
	}
	// The client receives the result compacted; indenting restores the
	// daemon's canonical serve.MarshalResult bytes.
	var canon bytes.Buffer
	if err := json.Indent(&canon, d.Result, "", "  "); err != nil {
		return campaign{}, fmt.Errorf("gate: result of %s (%s): %w", s.key, s.id, err)
	}
	canon.WriteByte('\n')
	var res online.Result
	if err := json.Unmarshal(d.Result, &res); err != nil {
		return campaign{}, fmt.Errorf("gate: result of %s (%s): %w", s.key, s.id, err)
	}
	n := len(res.PredictedCost)
	if n < s.spec.Online.MaxExperiments && !explainsShortRun[res.Reason] {
		return campaign{}, fmt.Errorf("gate: campaign %s (%s) stopped after %d of %d experiments (reason %q)",
			s.key, s.id, n, s.spec.Online.MaxExperiments, res.Reason)
	}
	if n == 0 || !res.Health.Consistent() {
		return campaign{}, fmt.Errorf("gate: campaign %s (%s) made %d experiments, fault ledger consistent %v",
			s.key, s.id, n, res.Health.Consistent())
	}
	c := campaign{
		key:        s.key,
		wall:       s.doneAt.Sub(s.submitAt).Seconds(),
		queueWait:  -1,
		submit:     s.submitS,
		digest:     sha256.Sum256(canon.Bytes()),
		selections: n,
		quality: quality{
			costRMSE:  oneStepRMSE(&res),
			cumCost:   res.CumCost[n-1],
			cumRegret: res.CumRegret[n-1],
			mape:      res.OneStepMAPE(),
		},
	}
	if !s.runAt.IsZero() {
		c.queueWait = s.runAt.Sub(s.submitAt).Seconds()
	}

	// A campaign resumed from a finished checkpoint returns that run's
	// result bit for bit, so no result check can tell it from a fresh run:
	// the gate checks the isolation that rules it out instead.
	stored, err := engine.ParseCampaignSpec(d.Spec)
	if err != nil {
		return c, fmt.Errorf("gate: stored spec of %s (%s): %w", s.key, s.id, err)
	}
	own := w.store.CheckpointPath(s.id)
	if got := stored.Online.CheckpointPath; got != own {
		return c, fmt.Errorf("gate: campaign %s (%s) checkpoints to %q, not its own %q: "+
			"campaigns sharing a checkpoint resume each other's finished runs instead of running",
			s.key, s.id, got, own)
	}
	ckpt, err := os.Stat(own)
	if err != nil {
		return c, fmt.Errorf("gate: checkpoint of %s (%s): %w", s.key, s.id, err)
	}
	c.ckptBytes = ckpt.Size()
	return c, nil
}

// oneStepRMSE is the RMSE of the one-step-ahead cost predictions, the
// online campaign's only held-out accuracy signal.
func oneStepRMSE(r *online.Result) float64 {
	var s float64
	for i, p := range r.PredictedCost {
		d := p - r.ActualCost[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(r.PredictedCost)))
}

// check runs one campaign of the last batch directly through the engine,
// outside the timed window, and compares its canonical bytes with the
// daemon's stored result. The seed's parity picks which of the two
// canonical specs is checked.
func (w *serveOnline) check() error {
	s := w.last[w.seed&1]
	v, err := engine.RunCampaignSpec(context.Background(), s.spec, nil, nil)
	if err != nil {
		return fmt.Errorf("gate: direct run of %s: %w", s.key, err)
	}
	want, err := serve.MarshalResult(v)
	if err != nil {
		return err
	}
	got, err := w.store.ReadResult(s.id)
	if err != nil {
		return fmt.Errorf("gate: stored result of %s (%s): %w", s.key, s.id, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("gate: campaign %s (%s) served a result that differs from a direct engine run of the same spec", s.key, s.id)
	}
	return nil
}

func (w *serveOnline) poolSize() int { return len(dataset.AllCombos()) }

// layers adds the set-up's dataset load time and the store's figures: the
// mean final checkpoint size of the traced campaigns and the store's size
// on disk.
func (w *serveOnline) layers(m metrics, traced phase) {
	m.set("dataset.load_s", median(w.loads), "s", len(w.loads))
	var ckpt []float64
	for _, c := range traced.campaigns {
		ckpt = append(ckpt, float64(c.ckptBytes))
	}
	if len(ckpt) > 0 {
		m.set("online.checkpoint_bytes", sum(ckpt)/float64(len(ckpt)), "bytes", len(ckpt))
	}
	var size int64
	// A file removed mid-walk (a temp file renamed into place) is skipped.
	_ = filepath.WalkDir(w.store.Root(), func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				size += info.Size()
			}
		}
		return nil
	})
	m.set("serve.store_bytes", float64(size), "bytes", 1)
}

func (w *serveOnline) requests() (int, int) {
	return int(w.attempted.Load()), int(w.failed.Load())
}

// close stops the daemon, waiting for its workers, and drops the client's
// idle connections.
func (w *serveOnline) close() error {
	if w.daemon == nil {
		return nil
	}
	err := w.daemon.Close()
	w.daemon = nil
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return err
}
