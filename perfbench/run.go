package main

import (
	"crypto/sha256"
	"fmt"
	"log"
	"runtime"
	"sort"
	"time"

	"alamr/internal/engine"
	"alamr/internal/obs"
)

// workloads registers every workload by name.
var workloads = map[string]func(seed int64, work string) (workload, error){
	"pool-1e5":     newPool1e5,
	"serve-online": newServeOnline,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func newWorkload(cfg config, work string) (workload, error) {
	return workloads[cfg.workload](cfg.seed, work)
}

// explainsShortRun lists the stop reasons that legitimately end a campaign
// before its selection or experiment budget.
var explainsShortRun = map[engine.StopReason]bool{
	engine.StopPoolExhausted: true,
	engine.StopMemoryLimit:   true,
	engine.StopStable:        true,
	engine.StopBudget:        true,
}

// workload is one set of inputs the benchmark drives. Every method runs on
// the benchmark's main goroutine.
type workload interface {
	// setup builds the workload's inputs (and daemon) from scratch; the
	// benchmark times several, closing the previous one in between.
	setup() error
	// inputs is how many distinct input sets the workload cycles through:
	// unit u runs input set u mod inputs(). Every phase covers each set.
	inputs() int
	// unit runs one closed-loop unit of work on input set u mod inputs(),
	// checks each campaign it ran, and returns them.
	unit(u int) ([]campaign, error)
	// poolSize is the number of candidate jobs one campaign selects from.
	poolSize() int
	// check runs the once-per-run correctness checks outside the timed
	// window, after every phase.
	check() error
	// layers adds the workload's own per-layer figures for the traced phase.
	layers(m metrics, traced phase)
	// requests reports the client operations beyond campaigns (HTTP calls)
	// attempted and failed or refused so far.
	requests() (attempted, failed int)
	close() error
}

// campaign is one campaign as the benchmark's caller saw it.
type campaign struct {
	// key names the campaign's spec; every repetition of a key must return
	// byte-identical results.
	key string
	// wall is spec → result as the caller sees it; for serve, submit →
	// terminal.
	wall float64
	// queueWait is submit → first seen running (serve only; -1 when the
	// campaign was never seen running before it ended).
	queueWait float64
	// submit is how long the submit request took (serve only).
	submit float64
	// digest is the SHA-256 of the campaign's canonical result bytes
	// (serve.MarshalResult).
	digest     [sha256.Size]byte
	selections int
	quality    quality
	// ckptBytes is the final size of the campaign's checkpoint (serve only).
	ckptBytes int64
}

// quality holds the learner-quality figures of one campaign. They are pure
// functions of the spec, so a speed-up that changes what the learner picks
// moves them.
type quality struct {
	// costRMSE is the final test-set cost RMSE (replay) or the RMSE of the
	// one-step-ahead cost predictions (online, which has no test set).
	costRMSE  float64
	cumCost   float64 // CC, node-hours
	cumRegret float64 // CR, node-hours
	// mape is the one-step-ahead cost MAPE (online only; NaN for replay).
	mape float64
}

// phase is one measured stretch of back-to-back units.
type phase struct {
	wall      float64 // seconds from the first unit's start to the last one's end
	units     int
	campaigns []campaign
	// rates are the selections per wall second of each unit.
	rates    []float64
	allocMB  float64 // runtime TotalAlloc growth
	gcCycles uint32
	// rssMB are the resident-set samples taken during the phase.
	rssMB []float64
}

func (p phase) selections() int {
	n := 0
	for _, c := range p.campaigns {
		n += c.selections
	}
	return n
}

// walls are the campaigns' wall times, in completion order.
func (p phase) walls() []float64 {
	out := make([]float64, len(p.campaigns))
	for i, c := range p.campaigns {
		out[i] = c.wall
	}
	return out
}

// measure runs whole units until the phase has lasted seconds and at least
// minUnits units, then checks that repetitions agree bitwise. The process's
// resident set is sampled throughout.
func measure(w workload, seconds float64, minUnits int) (phase, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss := startRSSSampler()
	var p phase
	start := time.Now()
	for p.units < minUnits || time.Since(start).Seconds() < seconds {
		t0 := time.Now()
		cs, err := w.unit(p.units)
		if err != nil {
			rss.stop()
			return p, err
		}
		sel := 0
		for _, c := range cs {
			sel += c.selections
		}
		p.rates = append(p.rates, float64(sel)/time.Since(t0).Seconds())
		p.campaigns = append(p.campaigns, cs...)
		p.units++
	}
	p.wall = time.Since(start).Seconds()
	p.rssMB = rss.stop()
	runtime.ReadMemStats(&after)
	p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	p.gcCycles = after.NumGC - before.NumGC
	_, err := digests(p.campaigns)
	return p, err
}

// digests maps each campaign key to its result digest, failing when two
// repetitions of one key disagree.
func digests(cs []campaign) (map[string][sha256.Size]byte, error) {
	out := make(map[string][sha256.Size]byte, len(cs))
	for _, c := range cs {
		if d, ok := out[c.key]; ok && d != c.digest {
			return nil, fmt.Errorf("gate: campaign %s returned different results on two repetitions", c.key)
		}
		out[c.key] = c.digest
	}
	return out, nil
}

// sameResults fails when a campaign key returned different results in the
// untraced and the traced phase: instrumentation must be write-only.
func sameResults(untraced, traced []campaign) error {
	a, err := digests(untraced)
	if err != nil {
		return err
	}
	b, err := digests(traced)
	if err != nil {
		return err
	}
	for k, d := range b {
		if u, ok := a[k]; ok && u != d {
			return fmt.Errorf("gate: campaign %s returned different results traced and untraced", k)
		}
	}
	return nil
}

// Set-up runs at least minSetups times and, while it stays cheap, up to
// maxSetups times within setupBudget seconds; setup_s is the median. A
// sub-millisecond set-up is timed many times, since scheduling jitter moves
// each one by tens of percent.
const (
	minSetups   = 3
	maxSetups   = 101
	setupBudget = 2.0
)

func run(cfg config, work string) (*report, *result, error) {
	w, err := newWorkload(cfg, work)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err := w.close(); err != nil {
			log.Printf("closing workload: %v", err)
		}
	}()

	var setups []float64
	for len(setups) < minSetups || (len(setups) < maxSetups && sum(setups) < setupBudget) {
		// Tearing down the previous set-up is not set-up time.
		if err := w.close(); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, nil, fmt.Errorf("setting up %s: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// An untraced run repeats every input set within its phase; a traced
	// run splits its time between an untraced and a traced phase over the
	// same input sets, which repeats each of them across the two phases.
	seconds, minUnits := cfg.seconds, 2*w.inputs()
	if cfg.trace {
		seconds, minUnits = cfg.seconds/2, w.inputs()
	}
	untraced, err := measure(w, seconds, minUnits)
	if err != nil {
		return nil, nil, err
	}
	var traced phase
	var snap obs.Snapshot
	if cfg.trace {
		reg := obs.NewRegistry()
		obs.Enable(reg, nil)
		traced, err = measure(w, seconds, minUnits)
		obs.Disable()
		if err != nil {
			return nil, nil, err
		}
		if err := sameResults(untraced.campaigns, traced.campaigns); err != nil {
			return nil, nil, err
		}
		snap = reg.TakeSnapshot()
	}
	if err := w.check(); err != nil {
		return nil, nil, err
	}

	e2e := endToEnd(setups, untraced)
	rep := &report{
		Provenance: newProvenance(cfg, w.poolSize()),
		Metrics:    e2e,
		Samples:    map[string][]float64{"setup_s": setups, "unit_selections_per_s": untraced.rates, "campaign_s": untraced.walls()},
	}
	res := &result{Correct: true}
	if res.Metrics, err = e2e.values(catalogEndToEnd); err != nil {
		return nil, nil, err
	}
	phases := []phase{untraced}
	if cfg.trace {
		layer := layerMetrics(snap, traced, untraced)
		w.layers(layer, traced)
		for k, v := range layer {
			rep.Metrics[k] = v
		}
		rep.Shares = shares(layer, traced)
		if res.Metrics, err = layer.values(catalogPerLayer); err != nil {
			return nil, nil, err
		}
		phases = append(phases, traced)
	}
	for _, p := range phases {
		res.Attempted += len(p.campaigns)
	}
	reqs, failed := w.requests()
	res.Attempted += reqs
	res.Failed = failed
	rep.Metrics["error_rate"] = sample{Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio", N: res.Attempted}
	return rep, res, nil
}

// median returns the median of xs (the mean of the middle two for an even
// count); NaN for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return nan
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
