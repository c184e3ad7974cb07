package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/serve"
)

// TestServeSmoke starts the daemon the way `al-serve -data dataset.csv`
// does, on an ephemeral port with a temporary store, submits the canonical
// online-sim campaign with its checkpoint path cleared (the daemon injects
// the campaign's own), and checks that the stored result is byte for byte
// serve.MarshalResult of a direct engine run and that a stop signal shuts
// the daemon down cleanly.
func TestServeSmoke(t *testing.T) {
	const data = "../../dataset.csv"
	store := filepath.Join(t.TempDir(), "store")
	stop := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-store", store, "-data", data, "-workers", "1"}, stop, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("al-serve exited before serving: %v", err)
	}

	spec, err := engine.LoadCampaignSpec("../../examples/specs/online-sim.json")
	if err != nil {
		t.Fatal(err)
	}
	online := *spec.Online
	online.CheckpointPath = ""
	spec.Online = &online
	raw, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	client := serve.NewClient(addr)
	meta, err := client.Submit("smoke", "", raw)
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.WaitTerminal(meta.ID, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("campaign ended %s (%s), want done", final.State, final.Error)
	}
	got, err := os.ReadFile(filepath.Join(store, meta.ID, "result.json"))
	if err != nil {
		t.Fatal(err)
	}

	ds, err := dataset.LoadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	v, err := engine.RunCampaignSpec(context.Background(), spec, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.MarshalResult(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the daemon's stored result differs from a direct engine run's")
	}

	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("al-serve stopped with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("al-serve did not stop within 30 s of the signal")
	}
}
