package remotelab

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"alamr/internal/dataset"
	"alamr/internal/stats"
)

// Executor is what a worker process actually runs: a lab whose measurement
// is a pure function of (configuration, noise seed). online.SimLab
// implements it (RunSeeded); SynthLab below is the fast analytic stand-in
// for tests and smoke fleets.
type Executor interface {
	RunSeeded(c dataset.Combo, noiseSeed int64) (dataset.Job, error)
}

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	// Name identifies the worker to the dispatcher (and in per-worker
	// metrics); it must be unique across the fleet.
	Name string
	// Executor runs the jobs.
	Executor Executor
	// Heartbeat is the liveness-frame interval. It must be comfortably
	// under the dispatcher's silence deadline; default 1s.
	Heartbeat time.Duration
	// Slowdown stretches each job's execution to at least this long
	// (progress heartbeats tick during the stretch). Real labs are slow on
	// their own; simulated labs use it to give chaos harnesses a window to
	// kill a mid-job worker. 0 = report results immediately.
	Slowdown time.Duration
}

func (c *WorkerConfig) setDefaults() {
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
}

// RunWorker connects to the dispatcher at addr and serves jobs until the
// connection closes (dispatcher shutdown returns nil; anything else
// returns the transport error).
func RunWorker(addr string, cfg WorkerConfig) error {
	cfg.setDefaults()
	if cfg.Name == "" {
		return errors.New("remotelab: worker needs a name")
	}
	if cfg.Executor == nil {
		return errors.New("remotelab: worker needs an executor")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("remotelab: dialing dispatcher %s: %w", addr, err)
	}
	defer conn.Close()
	w := &worker{cfg: cfg, conn: conn, stop: make(chan struct{})}
	defer close(w.stop)
	if err := w.write(message{Type: msgHello, Version: protocolVersion, Worker: cfg.Name}); err != nil {
		return err
	}
	go w.heartbeatLoop()
	for {
		m, err := readFrame(conn)
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("remotelab: worker %s read: %w", cfg.Name, err)
		}
		if m.Type != msgJob || m.Combo == nil {
			return fmt.Errorf("remotelab: worker %s: unexpected %q frame", cfg.Name, m.Type)
		}
		if err := w.serve(m); err != nil {
			return err
		}
	}
}

// worker is the connection-scoped state of one RunWorker call.
type worker struct {
	cfg  WorkerConfig
	conn net.Conn
	stop chan struct{}

	writeMu sync.Mutex // result and heartbeat writers share the socket

	mu       sync.Mutex
	jobID    uint64  // in-flight assignment, 0 when idle
	progress float64 // node-hours consumed so far
}

func (w *worker) write(m message) error {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	return writeFrame(w.conn, m)
}

// heartbeatLoop keeps the dispatcher's silence deadline from firing: every
// interval it sends the in-flight job's consumed cost (or an idle beat).
// Write errors are left for the main loop's reads to surface.
func (w *worker) heartbeatLoop() {
	t := time.NewTicker(w.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			id, progress := w.jobID, w.progress
			w.mu.Unlock()
			if w.write(message{Type: msgHeartbeat, ID: id, ProgressNH: progress}) != nil {
				return
			}
		}
	}
}

// serve executes one assignment and reports its outcome. The measurement
// is computed up front (it is deterministic and fast); the Slowdown stretch
// then simulates the wall-clock of real execution, with progress advancing
// linearly — which is the window a chaos harness SIGKILLs workers in, and
// the source of the partial cost a lost worker leaves behind.
func (w *worker) serve(m message) error {
	w.mu.Lock()
	w.jobID, w.progress = m.ID, 0
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.jobID, w.progress = 0, 0
		w.mu.Unlock()
	}()

	job, err := w.cfg.Executor.RunSeeded(*m.Combo, m.Seed)
	if err != nil {
		return w.write(message{Type: msgResult, ID: m.ID, Error: err.Error()})
	}

	oom := m.RSSLimitMB > 0 && job.MemMB >= m.RSSLimitMB
	final := job
	if oom {
		// The kill lands a deterministic fraction of the way through the
		// run — the same rule (and the same censoring: MaxRSS >= limit) as
		// faults.FaultyLab, derived from the job's own seed so a
		// re-executed job reports the identical kill on any worker.
		rng := stats.SeededRand(stats.SplitSeed(m.Seed, 1))
		frac := 0.25 + 0.75*rng.Float64()
		stats.PutRand(rng)
		final.MemMB = m.RSSLimitMB
		final.WallSec *= frac
		final.CostNH *= frac
	}

	if w.cfg.Slowdown > 0 {
		// March progress forward in heartbeat-sized steps so the
		// dispatcher's partial-cost figure tracks the simulated execution.
		start := time.Now()
		step := w.cfg.Heartbeat / 4
		for {
			elapsed := time.Since(start)
			if elapsed >= w.cfg.Slowdown {
				break
			}
			w.mu.Lock()
			w.progress = final.CostNH * (elapsed.Seconds() / w.cfg.Slowdown.Seconds())
			w.mu.Unlock()
			time.Sleep(min(step, w.cfg.Slowdown-elapsed))
		}
	}

	return w.write(message{Type: msgResult, ID: m.ID, Job: &final, OOM: oom})
}
