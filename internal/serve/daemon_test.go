package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alamr/internal/dataset"
	"alamr/internal/engine"
)

// directResult runs a spec straight through the engine (no daemon) and
// returns the canonical result bytes — the bitwise reference every daemon
// test compares against.
func directResult(t *testing.T, rawSpec []byte, ds *dataset.Dataset) []byte {
	t.Helper()
	spec, err := engine.ParseCampaignSpec(rawSpec)
	if err != nil {
		t.Fatal(err)
	}
	v, err := engine.RunCampaignSpec(context.Background(), spec, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalResult(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDaemonConcurrentBitwise is the serving-layer acceptance pin: N
// concurrent campaigns across two tenants and both modes, scheduled on a
// bounded pool, must each produce a result bitwise identical to running the
// same spec directly through the engine.
func TestDaemonConcurrentBitwise(t *testing.T) {
	ds := testDataset(90, 21)
	d, client := newTestDaemon(t, Config{Workers: 4, Dataset: ds})

	type sub struct {
		tenant string
		spec   json.RawMessage
	}
	var subs []sub
	for i := 0; i < 4; i++ {
		subs = append(subs,
			sub{"acme", replaySpecJSON(fmt.Sprintf("r-%d", i), int64(100+i), 5)},
			sub{"globex", onlineSpecJSON(fmt.Sprintf("o-%d", i), int64(200+i), 6, ds)},
		)
	}
	ids := make([]string, len(subs))
	for i, s := range subs {
		m, err := client.Submit(s.tenant, "", s.spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = m.ID
	}
	for i, id := range ids {
		m, err := client.WaitTerminal(id, 120*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if m.State != StateDone {
			t.Fatalf("campaign %s: state %s (%s)", id, m.State, m.Error)
		}
		got, err := d.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		want := directResult(t, subs[i].spec, ds)
		if string(got) != string(want) {
			t.Fatalf("campaign %s (%s): daemon result differs from direct engine run", id, subs[i].tenant)
		}
	}
}

// TestDaemonCancelRunning: DELETE on a running campaign stops it at the
// next round boundary with the partial result stored and the cancelled
// stop reason recorded.
func TestDaemonCancelRunning(t *testing.T) {
	ds := testDataset(200, 31)
	d, client := newTestDaemon(t, Config{Workers: 1, Dataset: ds})
	m, err := client.Submit("t", "", replaySpecJSON("cancel-me", 7, 150))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running, then cancel.
	var seq int64
	for {
		st, err := client.Status(m.ID, seq, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("campaign finished before cancel: %s", st.State)
		}
		seq = st.Seq
	}
	if _, err := client.Cancel(m.ID); err != nil {
		t.Fatal(err)
	}
	final, err := client.WaitTerminal(m.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("state after cancel = %s (%s)", final.State, final.Error)
	}
	// The partial result is stored with the cancelled stop reason.
	res, err := d.Result(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Reason string `json:"Reason"`
	}
	if err := json.Unmarshal(res, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Reason != string(engine.StopCancelled) {
		t.Fatalf("partial result reason = %q", tr.Reason)
	}
	// Cancel is idempotent on terminal campaigns.
	again, err := client.Cancel(m.ID)
	if err != nil || again.State != StateCancelled {
		t.Fatalf("second cancel: %+v %v", again, err)
	}
}

// TestDaemonCancelQueued: cancelling a campaign that never got a worker
// finalizes it immediately without running anything.
func TestDaemonCancelQueued(t *testing.T) {
	ds := testDataset(120, 41)
	d, client := newTestDaemon(t, Config{Workers: 1, Dataset: ds})
	// Occupy the single worker, then queue a victim behind it.
	if _, err := client.Submit("t", "", replaySpecJSON("blocker", 1, 100)); err != nil {
		t.Fatal(err)
	}
	victim, err := client.Submit("t", "", replaySpecJSON("victim", 2, 100))
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.Cancel(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("queued cancel state = %s", got.State)
	}
	if _, err := d.Result(victim.ID); !os.IsNotExist(err) {
		t.Fatalf("cancelled-while-queued campaign has a result: %v", err)
	}
}

// TestDaemonRestartResume: a daemon closed with campaigns still queued
// reopens the same store and finishes them, bitwise identical to direct
// runs — the graceful-restart half of the durability story (the SIGKILL
// half is TestDaemonSIGKILLResume).
func TestDaemonRestartResume(t *testing.T) {
	ds := testDataset(90, 51)
	store := t.TempDir()

	d1, err := New(Config{StoreDir: store, Workers: 1, Dataset: ds, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Start(); err != nil {
		t.Fatal(err)
	}
	client := NewClient(d1.Addr())
	specs := [][]byte{
		replaySpecJSON("restart-0", 61, 60),
		onlineSpecJSON("restart-1", 62, 8, ds),
		replaySpecJSON("restart-2", 63, 5),
	}
	ids := make([]string, len(specs))
	for i, s := range specs {
		m, err := client.Submit("t", "", s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = m.ID
	}
	// Close while the first (long) campaign runs: it goes back to queued,
	// the rest never started.
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := New(Config{StoreDir: store, Workers: 2, Dataset: ds, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Start(); err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	client2 := NewClient(d2.Addr())
	for i, id := range ids {
		m, err := client2.WaitTerminal(id, 120*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if m.State != StateDone {
			t.Fatalf("campaign %s after restart: %s (%s)", id, m.State, m.Error)
		}
		got, err := d2.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := directResult(t, specs[i], ds); string(got) != string(want) {
			t.Fatalf("campaign %s: restarted result differs from direct run", id)
		}
	}
}

// TestDaemonRecoverStaleSpecs: a stored spec the parser does not accept
// must not keep the daemon down. A terminal campaign keeps its state and
// its stored bytes; a queued one (here a spec that still carries the
// removed "pool" section) finishes failed with the parse error; the rest of
// the store recovers and runs.
func TestDaemonRecoverStaleSpecs(t *testing.T) {
	ds := testDataset(90, 52)
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	unknown := []byte(`{"version":1,"name":"unknown","mode":"replay","policy":{"name":"maxsigma"},"replay":{"n_init":8,"n_test":20},"retired_option":true}`)
	stale := []byte(`{"version":1,"name":"stale","mode":"replay","policy":{"name":"maxsigma"},"replay":{"n_init":8,"n_test":20,"pool":{"shard":4096,"top_k":8}}}`)
	valid := replaySpecJSON("valid", 64, 4)
	stored := []struct {
		id    string
		spec  []byte
		state State
	}{
		{"c000001", unknown, StateDone},
		{"c000002", stale, StateQueued},
		{"c000003", valid, StateQueued},
	}
	for _, c := range stored {
		if err := st.WriteSpec(c.id, c.spec); err != nil {
			t.Fatal(err)
		}
		if err := st.WriteState(Meta{ID: c.id, Tenant: "t", Priority: DefaultPriority, State: c.state, Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}

	d, client := newTestDaemon(t, Config{StoreDir: dir, Workers: 1, Dataset: ds})
	if m, _ := d.Get("c000001"); m.State != StateDone {
		t.Fatalf("done campaign with a stale spec recovered as %s (%s)", m.State, m.Error)
	}
	if raw, ok := d.Spec("c000001"); !ok || string(raw) != string(unknown) {
		t.Fatalf("done campaign's stored spec = %q (ok=%v), want its stored bytes", raw, ok)
	}
	m, err := client.WaitTerminal("c000002", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.State != StateFailed || !strings.Contains(m.Error, `unknown field "pool"`) {
		t.Fatalf("queued campaign with a stale spec: %s (%q), want failed naming the field", m.State, m.Error)
	}
	m, err = client.WaitTerminal("c000003", 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.State != StateDone {
		t.Fatalf("valid campaign next to stale ones: %s (%s)", m.State, m.Error)
	}
}

// TestServeDaemonHelper is not a test: it is the daemon subprocess the
// SIGKILL test spawns by re-exec'ing the test binary. It serves until
// killed, announcing its address through a file in the store root.
func TestServeDaemonHelper(t *testing.T) {
	store := os.Getenv("AL_SERVE_STORE")
	if store == "" {
		t.Skip("helper process: only meaningful when re-exec'd by the SIGKILL test")
	}
	ds, err := dataset.LoadFile(os.Getenv("AL_SERVE_DATA"))
	if err != nil {
		t.Fatalf("helper: loading dataset: %v", err)
	}
	d, err := New(Config{StoreDir: store, Workers: 2, Dataset: ds})
	if err != nil {
		t.Fatalf("helper: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("helper: %v", err)
	}
	if err := os.WriteFile(filepath.Join(store, "addr"), []byte(d.Addr()), 0o644); err != nil {
		t.Fatalf("helper: %v", err)
	}
	select {} // run until SIGKILLed
}

// TestDaemonSIGKILLResume is the durability acceptance pin: a daemon
// process running online campaigns is SIGKILLed mid-flight; a fresh daemon
// on the same store resumes every in-flight campaign from its last
// checkpoint and finishes all of them with results bitwise identical to
// uninterrupted direct runs.
func TestDaemonSIGKILLResume(t *testing.T) {
	ds := testDataset(150, 71)
	dir := t.TempDir()
	dsPath := filepath.Join(dir, "ds.csv")
	if err := ds.SaveFile(dsPath); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "store")

	cmd := exec.Command(os.Args[0], "-test.run=^TestServeDaemonHelper$")
	cmd.Env = append(os.Environ(), "AL_SERVE_STORE="+store, "AL_SERVE_DATA="+dsPath)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	// Wait for the subprocess daemon to announce its address.
	var addr string
	for deadline := time.Now().Add(30 * time.Second); ; {
		if data, err := os.ReadFile(filepath.Join(store, "addr")); err == nil && len(data) > 0 {
			addr = string(data)
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon subprocess never announced its address")
		}
		time.Sleep(20 * time.Millisecond)
	}
	client := NewClient(addr)

	// Long online campaigns (checkpoint after every experiment) across two
	// tenants: plenty of mid-flight window to kill into.
	specs := [][]byte{
		onlineSpecJSON("kill-0", 81, 30, ds),
		onlineSpecJSON("kill-1", 82, 30, ds),
		onlineSpecJSON("kill-2", 83, 30, ds),
		onlineSpecJSON("kill-3", 84, 30, ds),
	}
	tenants := []string{"acme", "globex", "acme", "globex"}
	ids := make([]string, len(specs))
	for i, s := range specs {
		m, err := client.Submit(tenants[i], "", s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = m.ID
	}

	// Kill the daemon the moment the first checkpoint lands on disk —
	// guaranteed mid-flight, past at least one experiment.
	for deadline := time.Now().Add(60 * time.Second); ; {
		found := false
		for _, id := range ids {
			if _, err := os.Stat(filepath.Join(store, id, "checkpoint.ckpt")); err == nil {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared before the kill deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	cmd.Wait()

	// Restart on the same store, in-process this time, and let everything
	// finish.
	d, err := New(Config{StoreDir: store, Workers: 2, Dataset: ds, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	client2 := NewClient(d.Addr())
	for i, id := range ids {
		m, err := client2.WaitTerminal(id, 120*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if m.State != StateDone {
			t.Fatalf("campaign %s after SIGKILL+restart: %s (%s)", id, m.State, m.Error)
		}
		got, err := d.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := directResult(t, specs[i], ds); string(got) != string(want) {
			t.Fatalf("campaign %s: resumed result differs bitwise from an unkilled run", id)
		}
	}
}
