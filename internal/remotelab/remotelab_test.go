package remotelab

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"alamr/internal/dataset"
	"alamr/internal/faults"
	"alamr/internal/stats"
)

// testDispatcher builds a dispatcher on a free port with test-sized
// timeouts and closes it with the test.
func testDispatcher(t *testing.T, cfg Config) *Dispatcher {
	t.Helper()
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.Wait == 0 {
		cfg.Wait = 5 * time.Second
	}
	d, err := NewDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// startWorker runs an in-process worker against the dispatcher; it exits
// when the dispatcher closes (cleanup closes the dispatcher — idempotent —
// then waits the worker goroutine out, since t.Cleanup runs LIFO).
func startWorker(t *testing.T, d *Dispatcher, name string, exec Executor, slowdown time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(d.Addr(), WorkerConfig{
			Name: name, Executor: exec,
			Heartbeat: 100 * time.Millisecond,
			Slowdown:  slowdown,
		})
	}()
	t.Cleanup(func() {
		d.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("worker goroutine leaked past dispatcher close")
		}
	})
}

func waitWorkers(t *testing.T, d *Dispatcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for d.liveWorkers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers joined", d.liveWorkers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

var testCombo = dataset.Combo{P: 8, Mx: 16, MaxLevel: 4, R0: 0.3, RhoIn: 0.1}

// TestDispatcherMatchesLocalExecution pins the core determinism contract:
// jobs run through the fleet equal SynthLab run locally under the
// dispatcher-assigned seeds, regardless of which worker served them.
func TestDispatcherMatchesLocalExecution(t *testing.T) {
	d := testDispatcher(t, Config{Seed: 11})
	startWorker(t, d, "w0", SynthLab{}, 0)
	startWorker(t, d, "w1", SynthLab{}, 0)
	waitWorkers(t, d, 2)

	combos := dataset.AllCombos()[:8]
	for i, c := range combos {
		got, err := d.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := SynthLab{}.RunSeeded(c, stats.SplitSeed(11, i+1))
		if got != want {
			t.Fatalf("combo %d: remote %+v != local %+v", i, got, want)
		}
	}

	ws := d.Workers()
	if len(ws) != 2 || ws[0].Name != "w0" || ws[1].Name != "w1" {
		t.Fatalf("workers = %+v", ws)
	}
	if ws[0].Done+ws[1].Done != len(combos) {
		t.Fatalf("completed %d+%d jobs, want %d", ws[0].Done, ws[1].Done, len(combos))
	}
}

// TestNoWorkersIsRetryable: an empty (or fully dead) fleet must charge a
// retryable transient fault, not hang the campaign — RunWithRetry then
// drains the attempt budget deterministically.
func TestNoWorkersIsRetryable(t *testing.T) {
	d := testDispatcher(t, Config{Seed: 1, Wait: 50 * time.Millisecond})
	_, err := d.Run(testCombo)
	var f *faults.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want a classified fault", err)
	}
	if f.Class != faults.ClassTransient || f.Severity != faults.Retryable {
		t.Fatalf("fault = %v/%v, want transient/retryable", f.Class, f.Severity)
	}
	// The journal entry must survive so a late-joining worker serves the
	// retry under the original run index.
	st, _ := d.LabState()
	var ls labState
	if err := json.Unmarshal(st, &ls); err != nil {
		t.Fatal(err)
	}
	if len(ls.Pending) != 1 || ls.Pending[0].Combo != testCombo || ls.Pending[0].Run != 1 {
		t.Fatalf("pending = %+v, want the failed combo at run 1", ls.Pending)
	}

	startWorker(t, d, "late", SynthLab{}, 0)
	waitWorkers(t, d, 1)
	got, err := d.Run(testCombo)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := SynthLab{}.RunSeeded(testCombo, stats.SplitSeed(1, 1))
	if got != want {
		t.Fatalf("retry after worker joined: %+v != %+v", got, want)
	}
}

// TestOOMReportIsCensored: a worker-reported OOM maps onto the Censored
// severity with the censored observation attached — the same contract
// faults.FaultyLab provides, so the memory surrogate's censored-feed path
// works against real fleets unchanged.
func TestOOMReportIsCensored(t *testing.T) {
	d := testDispatcher(t, Config{Seed: 7, RSSLimitMB: 1e-6})
	startWorker(t, d, "w0", SynthLab{}, 0)
	waitWorkers(t, d, 1)

	_, err := d.Run(testCombo)
	var f *faults.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want a classified fault", err)
	}
	if f.Class != faults.ClassOOM || f.Severity != faults.Censored {
		t.Fatalf("fault = %v/%v, want oom/censored", f.Class, f.Severity)
	}
	if f.Job.MemMB != 1e-6 {
		t.Fatalf("censored MemMB = %g, want the limit", f.Job.MemMB)
	}
	if f.Job.CostNH <= 0 || f.LostNH != f.Job.CostNH {
		t.Fatalf("partial cost %g / lost %g", f.Job.CostNH, f.LostNH)
	}
	// Terminal outcome: the journal entry is closed.
	st, _ := d.LabState()
	var ls labState
	json.Unmarshal(st, &ls)
	if len(ls.Pending) != 0 {
		t.Fatalf("censored job left pending journal %+v", ls.Pending)
	}
	// And the report is reproducible: re-running the combo draws a fresh
	// run index but the same deterministic kill rule.
	if _, err2 := d.Run(testCombo); err2 == nil {
		t.Fatal("second run unexpectedly survived the RSS limit")
	}
}

// errExec is an executor whose jobs always fail.
type errExec struct{}

func (errExec) RunSeeded(dataset.Combo, int64) (dataset.Job, error) {
	return dataset.Job{}, errors.New("reactor meltdown")
}

// TestExecutorErrorPassesThrough: a worker-side lab error comes back as a
// plain (unclassified) error, which RunWithRetry treats as fatal — exactly
// how a local lab's own error propagates.
func TestExecutorErrorPassesThrough(t *testing.T) {
	d := testDispatcher(t, Config{Seed: 3})
	startWorker(t, d, "w0", errExec{}, 0)
	waitWorkers(t, d, 1)

	_, err := d.Run(testCombo)
	if err == nil || !strings.Contains(err.Error(), "reactor meltdown") {
		t.Fatalf("err = %v, want the executor's message", err)
	}
	var f *faults.Fault
	if errors.As(err, &f) {
		t.Fatalf("executor error was classified as %v; must stay plain", f)
	}
}

// rawConn dials the dispatcher and speaks the protocol by hand — the tool
// for misbehaving-peer tests.
func rawConn(t *testing.T, addr, name string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := writeFrame(conn, message{Type: msgHello, Version: protocolVersion, Worker: name}); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestProtocolViolationIsFatal: a worker that answers with a frame outside
// the protocol is not a retry candidate — the fault is fatal.
func TestProtocolViolationIsFatal(t *testing.T) {
	d := testDispatcher(t, Config{Seed: 5})
	conn := rawConn(t, d.Addr(), "rogue")
	waitWorkers(t, d, 1)

	go func() {
		// Swallow the job, answer with nonsense.
		readFrame(conn)
		writeFrame(conn, message{Type: "exfiltrate", ID: 1})
	}()
	_, err := d.Run(testCombo)
	var f *faults.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want a classified fault", err)
	}
	if f.Class != faults.ClassUnknown || f.Severity != faults.Fatal {
		t.Fatalf("fault = %v/%v, want unknown/fatal", f.Class, f.Severity)
	}
}

// TestWorkerLossMidJob: a worker that vanishes with a job in flight yields
// a retryable transient fault charging the last reported progress, and the
// retry re-executes the identical job on the surviving worker.
func TestWorkerLossMidJob(t *testing.T) {
	d := testDispatcher(t, Config{Seed: 9, Heartbeat: time.Second})
	conn := rawConn(t, d.Addr(), "doomed")
	waitWorkers(t, d, 1)
	startWorker(t, d, "survivor", SynthLab{}, 0)
	waitWorkers(t, d, 2)

	go func() {
		m, err := readFrame(conn)
		if err != nil {
			return
		}
		// Report progress, then die without a result.
		writeFrame(conn, message{Type: msgHeartbeat, ID: m.ID, ProgressNH: 0.0625})
		time.Sleep(50 * time.Millisecond) // let the heartbeat land first
		conn.Close()
	}()

	_, err := d.Run(testCombo) // FIFO: lands on "doomed" (joined first)
	var f *faults.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want a classified fault", err)
	}
	if f.Class != faults.ClassTransient || f.Severity != faults.Retryable {
		t.Fatalf("fault = %v/%v, want transient/retryable", f.Class, f.Severity)
	}
	if f.LostNH != 0.0625 {
		t.Fatalf("LostNH = %g, want the heartbeat's 0.0625", f.LostNH)
	}

	// Retry: journal reuse pins the same run index, so the surviving
	// worker reproduces what the doomed one would have measured.
	got, err := d.Run(testCombo)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := SynthLab{}.RunSeeded(testCombo, stats.SplitSeed(9, 1))
	if got != want {
		t.Fatalf("stolen job %+v != original assignment %+v", got, want)
	}
}

// hangExec blocks every job until released — it parks an assignment in
// flight so tests can inspect mid-job state.
type hangExec struct {
	release chan struct{}
	once    sync.Once
}

func (h *hangExec) RunSeeded(c dataset.Combo, seed int64) (dataset.Job, error) {
	<-h.release
	return SynthLab{}.RunSeeded(c, seed)
}

// TestJournalRoundTripsThroughLabState: an in-flight assignment appears in
// LabState, and restoring that state into a fresh dispatcher re-dispatches
// the job under its original run index.
func TestJournalRoundTripsThroughLabState(t *testing.T) {
	d := testDispatcher(t, Config{Seed: 21})
	h := &hangExec{release: make(chan struct{})}
	startWorker(t, d, "w0", h, 0)
	waitWorkers(t, d, 1)

	runDone := make(chan error, 1)
	go func() {
		_, err := d.Run(testCombo)
		runDone <- err
	}()
	// Wait until the assignment is in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ws := d.Workers()
		if len(ws) == 1 && ws[0].Busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("assignment never went in flight")
		}
		time.Sleep(5 * time.Millisecond)
	}

	st, err := d.LabState()
	if err != nil {
		t.Fatal(err)
	}
	var ls labState
	if err := json.Unmarshal(st, &ls); err != nil {
		t.Fatal(err)
	}
	if ls.Runs != 1 || len(ls.Pending) != 1 || ls.Pending[0].Combo != testCombo || ls.Pending[0].Run != 1 {
		t.Fatalf("mid-flight state = %+v, want run counter 1 and the combo pending at run 1", ls)
	}

	h.once.Do(func() { close(h.release) })
	if err := <-runDone; err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh dispatcher (a resumed campaign process): the
	// journaled job re-dispatches under run index 1, and the next new
	// combo draws run index 2.
	d2 := testDispatcher(t, Config{Seed: 21})
	if err := d2.RestoreLabState(st); err != nil {
		t.Fatal(err)
	}
	startWorker(t, d2, "w0", SynthLab{}, 0)
	waitWorkers(t, d2, 1)
	got, err := d2.Run(testCombo)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := SynthLab{}.RunSeeded(testCombo, stats.SplitSeed(21, 1))
	if got != want {
		t.Fatalf("restored journal job %+v != original %+v", got, want)
	}
	other := dataset.AllCombos()[0]
	if other == testCombo {
		other = dataset.AllCombos()[1]
	}
	got2, err := d2.Run(other)
	if err != nil {
		t.Fatal(err)
	}
	want2, _ := SynthLab{}.RunSeeded(other, stats.SplitSeed(21, 2))
	if got2 != want2 {
		t.Fatalf("post-restore run counter drifted: %+v != %+v", got2, want2)
	}

	// Corrupt state is rejected with a descriptive error.
	if err := d2.RestoreLabState([]byte(`{"runs": "NaN"}`)); err == nil {
		t.Fatal("corrupt dispatcher state accepted")
	}
}

// TestRestoredStateSorted: LabState output is canonical (sorted), so
// checkpoints are byte-stable across map iteration order.
func TestLabStateCanonical(t *testing.T) {
	d := testDispatcher(t, Config{Seed: 2, Wait: 20 * time.Millisecond})
	// Fail several dispatches against an empty fleet to populate the
	// journal in arbitrary map order.
	combos := dataset.AllCombos()
	for _, c := range []dataset.Combo{combos[7], combos[3], combos[5]} {
		d.Run(c)
	}
	a, err := d.LabState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.LabState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("LabState not canonical:\n%s\n%s", a, b)
	}
	var ls labState
	json.Unmarshal(a, &ls)
	if len(ls.Pending) != 3 {
		t.Fatalf("pending = %+v", ls.Pending)
	}
	for i := 1; i < len(ls.Pending); i++ {
		if !comboLess(ls.Pending[i-1].Combo, ls.Pending[i].Combo) {
			t.Fatalf("pending not sorted: %+v", ls.Pending)
		}
	}
}

// TestMinWorkersTimeout: NewDispatcher fails loudly when the fleet does
// not materialize.
func TestMinWorkersTimeout(t *testing.T) {
	_, err := NewDispatcher(Config{Listen: "127.0.0.1:0", MinWorkers: 2, Wait: 50 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "0 of 2 workers") {
		t.Fatalf("err = %v, want a fleet-timeout error", err)
	}
}

// TestHandshakeRejectsBadHello: wrong versions and duplicate names never
// enter the fleet.
func TestHandshakeRejectsBadHello(t *testing.T) {
	d := testDispatcher(t, Config{Seed: 1})
	startWorker(t, d, "w0", SynthLab{}, 0)
	waitWorkers(t, d, 1)

	for name, hello := range map[string]message{
		"wrong version": {Type: msgHello, Version: 99, Worker: "vnext"},
		"no name":       {Type: msgHello, Version: protocolVersion},
		"dup name":      {Type: msgHello, Version: protocolVersion, Worker: "w0"},
	} {
		conn, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, hello); err != nil {
			t.Fatal(err)
		}
		// The dispatcher must hang up on us.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := readFrame(conn); err == nil {
			t.Fatalf("%s: handshake accepted", name)
		}
		conn.Close()
	}
	if n := d.liveWorkers(); n != 1 {
		t.Fatalf("fleet size %d after rejected hellos, want 1", n)
	}
}

// TestFrameGuards: the length prefix is bounded and garbage is a protocol
// error distinct from I/O failure.
func TestFrameGuards(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go a.Write([]byte{0xff, 0xff, 0xff, 0xff})
	_, err := readFrame(b)
	var pv *errProtocol
	if !errors.As(err, &pv) {
		t.Fatalf("oversized frame: err = %v, want protocol violation", err)
	}

	go func() {
		var buf [4]byte
		buf[3] = 4
		a.Write(buf[:])
		a.Write([]byte("}{!?"))
	}()
	_, err = readFrame(b)
	if !errors.As(err, &pv) {
		t.Fatalf("garbage frame: err = %v, want protocol violation", err)
	}

	if err := writeFrame(a, message{Type: strings.Repeat("x", maxFrame)}); err == nil {
		t.Fatal("oversized write accepted")
	}
}

// TestSynthLabConcurrentMatchesFreshSource: SynthLab measurements made from
// eight goroutines at once, on pooled noise generators, equal the formula
// evaluated with a fresh noise source, bit for bit.
func TestSynthLabConcurrentMatchesFreshSource(t *testing.T) {
	combos := dataset.AllCombos()
	got := make([]dataset.Job, len(combos))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(combos); i += 8 {
				got[i], _ = SynthLab{}.RunSeeded(combos[i], stats.SplitSeed(5, i))
			}
		}()
	}
	wg.Wait()
	for i, c := range combos {
		wall := 2.0 * math.Pow(float64(c.Mx)/8, 1.5) * math.Pow(2, float64(c.MaxLevel-3)) *
			(1 + c.R0) / (0.3 + c.RhoIn)
		mem := 0.05 * float64(c.Mx) * float64(c.Mx) / 64 *
			math.Pow(2, float64(c.MaxLevel-3)) / math.Sqrt(float64(c.P))
		noise := rand.New(rand.NewSource(stats.SplitSeed(5, i)))
		wall *= 1 + 0.02*noise.NormFloat64()
		mem *= 1 + 0.01*noise.NormFloat64()
		want := dataset.Job{P: c.P, Mx: c.Mx, MaxLevel: c.MaxLevel, R0: c.R0, RhoIn: c.RhoIn,
			WallSec: math.Max(wall, 1e-9), CostNH: math.Max(wall, 1e-9) * float64(c.P) / 3600, MemMB: math.Max(mem, 1e-9)}
		if got[i] != want {
			t.Fatalf("combo %d: %+v, fresh source %+v", i, got[i], want)
		}
	}
}
