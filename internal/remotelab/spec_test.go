package remotelab

import (
	"net"
	"strings"
	"testing"
	"time"

	"alamr/internal/engine"
	"alamr/internal/online"
)

// TestRunSpecClosesRemoteLab: online.RunSpecCtx owns the lab a spec builds,
// so a remote dispatcher's listener must be gone once the call returns —
// after a finished campaign and on an error return alike.
func TestRunSpecClosesRemoteLab(t *testing.T) {
	spec := func(addr string) engine.CampaignSpec {
		return engine.CampaignSpec{
			Version: engine.SpecVersion,
			Name:    "remote-close",
			Mode:    engine.ModeOnline,
			Policy:  engine.PolicySpec{Name: "rgma"},
			Seed:    5,
			Online: &engine.OnlineSpec{
				Lab: engine.LabSpec{
					Name: "remote", Seed: 5, Listen: addr,
					MinWorkers: 1, HeartbeatSec: 2, WaitSec: 10,
				},
				MaxExperiments: 3,
			},
		}
	}

	t.Run("finished campaign", func(t *testing.T) {
		addr := freeAddr(t)
		worker := make(chan struct{})
		go func() {
			defer close(worker)
			// Dial until the campaign's dispatcher listens, then serve
			// until it closes.
			deadline := time.Now().Add(10 * time.Second)
			for {
				err := RunWorker(addr, WorkerConfig{Name: "w0", Executor: SynthLab{}, Heartbeat: 100 * time.Millisecond})
				if err == nil || !strings.Contains(err.Error(), "dialing") || time.Now().After(deadline) {
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
		}()
		res, err := online.RunSpecCtx(nil, spec(addr), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jobs) == 0 {
			t.Fatal("campaign ran no jobs")
		}
		select {
		case <-worker:
		case <-time.After(5 * time.Second):
			t.Fatal("worker still connected after the campaign returned")
		}
		assertRefused(t, addr)
	})

	t.Run("error return", func(t *testing.T) {
		addr := freeAddr(t)
		s := spec(addr)
		s.Online.Lab.MinWorkers = 0
		s.MemLimitPaperRule = true // needs the dataset: fails after the lab is built
		if _, err := online.RunSpecCtx(nil, s, nil, nil); err == nil {
			t.Fatal("paper memory rule without a dataset accepted")
		}
		assertRefused(t, addr)
	})
}

// freeAddr reserves a loopback port and releases it for the spec to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func assertRefused(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err == nil {
		conn.Close()
		t.Fatalf("%s still accepts connections after RunSpecCtx returned", addr)
	}
}
