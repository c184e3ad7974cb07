package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/obs"
)

// Config configures a Daemon.
type Config struct {
	// StoreDir is the campaign store root (required).
	StoreDir string
	// Addr is the HTTP listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// Workers bounds concurrently running campaigns (default GOMAXPROCS).
	Workers int
	// QueueCap bounds the queued-campaign backlog; submissions beyond it
	// are rejected with 429 (default 256, negative = unbounded).
	QueueCap int
	// Dataset optionally provides the offline dataset; submissions whose
	// spec needs it (replay mode, the "replay" lab, mem_limit_paper_rule)
	// are rejected with 400 when it is absent.
	Dataset *dataset.Dataset
	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
}

// campaign is the in-memory runtime record of one campaign. The store holds
// the durable truth; this struct adds the mutable machinery — the change
// broadcast channel for long-polls and the cancellation hooks.
type campaign struct {
	mu        sync.Mutex
	meta      Meta
	spec      engine.CampaignSpec // parsed; zero for one recovered terminal
	rawSpec   []byte              // canonical bytes as persisted
	changed   chan struct{}       // closed and replaced on every meta mutation
	cancelRun context.CancelFunc
	cancelled bool // cancellation requested (any state)
}

// snapshot returns a copy of the current meta.
func (c *campaign) snapshot() Meta {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta
}

// Daemon is the campaign-serving runtime: store + scheduler + worker pool +
// HTTP server. Create with New, start serving with Start, stop with Close.
type Daemon struct {
	cfg   Config
	store *Store
	sched *scheduler
	logf  func(string, ...any)

	mu        sync.Mutex
	campaigns map[string]*campaign

	httpServer *http.Server
	listener   net.Listener
	workersWG  sync.WaitGroup
	runCtx     context.Context
	runCancel  context.CancelFunc
}

// New opens the store, recovers persisted campaigns, and requeues every
// non-terminal one — the crash-recovery path. Online campaigns that were
// mid-flight resume from their checkpoint; replay campaigns rerun
// deterministically. The daemon is not yet serving HTTP; call Start.
func New(cfg Config) (*Daemon, error) {
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("serve: Config.StoreDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 256
	}
	if cfg.QueueCap < 0 {
		cfg.QueueCap = 0 // scheduler treats 0 as unbounded
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	store, err := OpenStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:       cfg,
		store:     store,
		sched:     newScheduler(cfg.QueueCap),
		logf:      logf,
		campaigns: map[string]*campaign{},
	}
	d.runCtx, d.runCancel = context.WithCancel(context.Background())
	if err := d.recover(); err != nil {
		return nil, err
	}
	return d, nil
}

// recover reloads the store and requeues non-terminal campaigns. Only
// their specs are parsed, because only execute reads a parsed spec: a
// terminal campaign keeps its stored bytes whatever the parser now says of
// them, and a non-terminal one whose spec no longer parses finishes failed
// with the parse error, so one stale spec cannot keep the daemon down.
func (d *Daemon) recover() error {
	stored, err := d.store.LoadAll()
	if err != nil {
		return err
	}
	for _, s := range stored {
		c := &campaign{meta: s.Meta, rawSpec: s.Spec, changed: make(chan struct{})}
		d.campaigns[s.Meta.ID] = c
		if s.Meta.State.Terminal() {
			continue
		}
		spec, err := engine.ParseCampaignSpec(s.Spec)
		if err != nil {
			d.logf("serve: recovering %s: %v", s.Meta.ID, err)
			d.finish(c, StateFailed, err.Error(), nil)
			continue
		}
		c.spec = spec
		// queued and running both go back to queued: the run slot was lost
		// with the old process; the checkpoint (if any) carries the progress.
		if s.Meta.State != StateQueued {
			d.transition(c, func(m *Meta) { m.State = StateQueued; m.Error = "" })
		}
		obs.ServeResumed.Inc()
		if err := d.sched.enqueue(c); err != nil {
			return fmt.Errorf("serve: requeueing %s: %w", s.Meta.ID, err)
		}
		d.logf("serve: requeued %s (tenant=%s)", s.Meta.ID, s.Meta.Tenant)
	}
	return nil
}

// Start binds the listener and launches the worker pool and HTTP server.
// Returns once the daemon is accepting requests; Addr reports the bound
// address.
func (d *Daemon) Start() error {
	addr := d.cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listening on %s: %w", addr, err)
	}
	d.listener = ln
	d.httpServer = &http.Server{Handler: d.handler()}
	for i := 0; i < d.cfg.Workers; i++ {
		d.workersWG.Add(1)
		go d.worker()
	}
	go func() {
		if err := d.httpServer.Serve(ln); err != nil && err != http.ErrServerClosed {
			d.logf("serve: http server: %v", err)
		}
	}()
	d.logf("serve: listening on %s (workers=%d queue-cap=%d)", ln.Addr(), d.cfg.Workers, d.cfg.QueueCap)
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (d *Daemon) Addr() string {
	if d.listener == nil {
		return ""
	}
	return d.listener.Addr().String()
}

// Close stops accepting requests, cancels running campaigns cooperatively,
// and waits for the workers to drain. Queued campaigns stay queued on disk.
func (d *Daemon) Close() error {
	var err error
	if d.httpServer != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = d.httpServer.Shutdown(ctx)
		cancel()
	}
	d.runCancel()
	d.sched.close()
	d.workersWG.Wait()
	return err
}

// Submit validates and enqueues one campaign. Validation failures return a
// *SubmitError carrying the HTTP status the front end should answer with.
func (d *Daemon) Submit(tenant, priority string, rawSpec []byte) (Meta, error) {
	if tenant == "" {
		tenant = "default"
	}
	if priority == "" {
		priority = DefaultPriority
	}
	if !ValidPriority(priority) {
		obs.ServeRejected.Inc(obs.ServeRejectInvalid)
		return Meta{}, &SubmitError{
			Status: http.StatusBadRequest,
			Msg:    fmt.Sprintf("unknown priority %q (known: high, normal, low)", priority),
		}
	}
	spec, err := engine.ParseCampaignSpec(rawSpec)
	if err != nil {
		obs.ServeRejected.Inc(obs.ServeRejectInvalid)
		return Meta{}, &SubmitError{Status: http.StatusBadRequest, Msg: err.Error()}
	}
	if spec.Mode == engine.ModeOnline {
		if err := engine.LabRegistered(spec.Online.Lab.Name); err != nil {
			obs.ServeRejected.Inc(obs.ServeRejectInvalid)
			return Meta{}, &SubmitError{Status: http.StatusBadRequest, Msg: err.Error()}
		}
	}
	if engine.SpecNeedsDataset(spec) && d.cfg.Dataset == nil {
		obs.ServeRejected.Inc(obs.ServeRejectInvalid)
		return Meta{}, &SubmitError{
			Status: http.StatusBadRequest,
			Msg:    "spec needs the offline dataset (replay mode, the \"replay\" lab, or mem_limit_paper_rule) but the daemon was started without -data",
		}
	}

	id := d.store.NewID()
	// Online campaigns checkpoint into their store directory so a killed
	// daemon resumes them; the stored spec records the injected path as
	// provenance of what actually ran.
	if spec.Mode == engine.ModeOnline && spec.Online.CheckpointPath == "" {
		o := *spec.Online
		o.CheckpointPath = d.store.CheckpointPath(id)
		spec.Online = &o
	}
	canonical, err := spec.Marshal()
	if err != nil {
		return Meta{}, &SubmitError{Status: http.StatusInternalServerError, Msg: err.Error()}
	}

	c := &campaign{
		meta:    Meta{ID: id, Tenant: tenant, Priority: priority, State: StateQueued, Seq: 1},
		spec:    spec,
		rawSpec: canonical,
		changed: make(chan struct{}),
	}
	if err := d.store.WriteSpec(id, canonical); err != nil {
		return Meta{}, &SubmitError{Status: http.StatusInternalServerError, Msg: err.Error()}
	}
	if err := d.store.WriteState(c.meta); err != nil {
		return Meta{}, &SubmitError{Status: http.StatusInternalServerError, Msg: err.Error()}
	}
	d.mu.Lock()
	d.campaigns[id] = c
	d.mu.Unlock()
	if err := d.sched.enqueue(c); err != nil {
		// Queue full: the campaign is on disk but will not run in this
		// process; mark it cancelled so it does not resurrect on restart.
		d.transition(c, func(m *Meta) {
			m.State = StateCancelled
			m.Error = "rejected: queue full"
		})
		obs.ServeRejected.Inc(obs.ServeRejectBackpressure)
		return Meta{}, &SubmitError{Status: http.StatusTooManyRequests, Msg: err.Error(), RetryAfter: 1}
	}
	obs.ServeSubmitted.Inc()
	return c.snapshot(), nil
}

// SubmitError is a validation or backpressure failure with its HTTP status.
type SubmitError struct {
	Status     int
	Msg        string
	RetryAfter int // seconds; nonzero adds a Retry-After header
}

func (e *SubmitError) Error() string { return e.Msg }

// Get returns a campaign's current meta.
func (d *Daemon) Get(id string) (Meta, bool) {
	d.mu.Lock()
	c, ok := d.campaigns[id]
	d.mu.Unlock()
	if !ok {
		return Meta{}, false
	}
	return c.snapshot(), true
}

// Spec returns a campaign's stored canonical spec bytes.
func (d *Daemon) Spec(id string) ([]byte, bool) {
	d.mu.Lock()
	c, ok := d.campaigns[id]
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	return c.rawSpec, true
}

// Result returns a done campaign's canonical result bytes.
func (d *Daemon) Result(id string) ([]byte, error) {
	return d.store.ReadResult(id)
}

// List returns the metas of all campaigns, optionally filtered by tenant,
// sorted by ID (submission order).
func (d *Daemon) List(tenant string) []Meta {
	d.mu.Lock()
	out := make([]Meta, 0, len(d.campaigns))
	for _, c := range d.campaigns {
		m := c.snapshot()
		if tenant == "" || m.Tenant == tenant {
			out = append(out, m)
		}
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WaitChange blocks until the campaign's Seq exceeds afterSeq or the
// timeout elapses, then returns the current meta — the long-poll primitive
// behind GET /status.
func (d *Daemon) WaitChange(id string, afterSeq int64, timeout time.Duration) (Meta, bool) {
	d.mu.Lock()
	c, ok := d.campaigns[id]
	d.mu.Unlock()
	if !ok {
		return Meta{}, false
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		c.mu.Lock()
		m := c.meta
		ch := c.changed
		c.mu.Unlock()
		if m.Seq > afterSeq || timeout <= 0 {
			return m, true
		}
		select {
		case <-ch:
		case <-deadline.C:
			return c.snapshot(), true
		}
	}
}

// Cancel requests cancellation. Queued campaigns cancel immediately;
// running ones stop cooperatively at the next round boundary (partial
// progress stays checkpointed). Terminal campaigns are unaffected
// (idempotent). The second return is false for unknown IDs.
func (d *Daemon) Cancel(id string) (Meta, bool) {
	d.mu.Lock()
	c, ok := d.campaigns[id]
	d.mu.Unlock()
	if !ok {
		return Meta{}, false
	}
	c.mu.Lock()
	state := c.meta.State
	c.cancelled = true
	cancel := c.cancelRun
	c.mu.Unlock()
	if state.Terminal() {
		return c.snapshot(), true
	}
	if state == StateQueued && d.sched.remove(c) {
		d.finish(c, StateCancelled, "", nil)
		return c.snapshot(), true
	}
	if cancel != nil {
		cancel()
	}
	// Between queue removal failing and the worker observing c.cancelled
	// there is nothing to do: the worker checks the flag before running.
	return c.snapshot(), true
}

// transition applies a meta mutation, bumps Seq, persists, and wakes
// long-polls.
func (d *Daemon) transition(c *campaign, mutate func(*Meta)) {
	c.mu.Lock()
	mutate(&c.meta)
	c.meta.Seq++
	meta := c.meta
	ch := c.changed
	c.changed = make(chan struct{})
	c.mu.Unlock()
	close(ch)
	if err := d.store.WriteState(meta); err != nil {
		d.logf("serve: persisting %s: %v", meta.ID, err)
	}
}

// finish moves a campaign to a terminal state, persisting the result first
// (if any) so a crash between the two writes reruns the campaign and
// rewrites an identical result.
func (d *Daemon) finish(c *campaign, state State, errMsg string, result []byte) {
	if result != nil {
		if err := d.store.WriteResult(c.meta.ID, result); err != nil {
			d.logf("serve: writing result of %s: %v", c.meta.ID, err)
			state, errMsg = StateFailed, err.Error()
		}
	}
	d.transition(c, func(m *Meta) { m.State = state; m.Error = errMsg })
	switch state {
	case StateDone:
		obs.ServeFinished.Inc(obs.ServeStateDone)
	case StateFailed:
		obs.ServeFinished.Inc(obs.ServeStateFailed)
	case StateCancelled:
		obs.ServeFinished.Inc(obs.ServeStateCancelled)
	}
}

// worker is one slot of the bounded pool: claim, execute, release, repeat.
func (d *Daemon) worker() {
	defer d.workersWG.Done()
	for {
		c := d.sched.next()
		if c == nil {
			return
		}
		d.execute(c)
		d.sched.release(c.meta.Tenant)
	}
}

// execute runs one campaign end to end.
func (d *Daemon) execute(c *campaign) {
	c.mu.Lock()
	if c.cancelled {
		c.mu.Unlock()
		d.finish(c, StateCancelled, "", nil)
		return
	}
	ctx, cancel := context.WithCancel(d.runCtx)
	c.cancelRun = cancel
	c.mu.Unlock()
	defer func() {
		cancel()
		c.mu.Lock()
		c.cancelRun = nil
		c.mu.Unlock()
	}()

	d.transition(c, func(m *Meta) { m.State = StateRunning })
	obs.ServeRunning.Add(1)
	defer obs.ServeRunning.Add(-1)

	scope := engine.NewCampaignObs(c.meta.ID)
	v, err := engine.RunCampaignSpec(ctx, c.spec, d.cfg.Dataset, scope)
	if err != nil {
		d.finish(c, StateFailed, err.Error(), nil)
		return
	}
	result, merr := MarshalResult(v)
	if merr != nil {
		d.finish(c, StateFailed, merr.Error(), nil)
		return
	}
	// A cooperative cancellation returns a partial result without error;
	// daemon shutdown (runCtx) requeues instead, so restart resumes it.
	if ctx.Err() != nil {
		if d.runCtx.Err() != nil && !c.isCancelled() {
			d.transition(c, func(m *Meta) { m.State = StateQueued })
			return
		}
		d.finish(c, StateCancelled, "", result)
		return
	}
	d.finish(c, StateDone, "", result)
}

func (c *campaign) isCancelled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cancelled
}

// marshalJSON is a small helper for HTTP responses.
func marshalJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"error":"encoding response"}`)
	}
	return data
}
