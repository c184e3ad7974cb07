package online

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alamr/internal/amr"
	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/obs"
	"alamr/internal/stats"
)

// clearSharedRefs empties the process-wide reference cache, so the next
// lookup of every key computes it again.
func clearSharedRefs(t *testing.T) {
	t.Helper()
	sharedRefs.mu.Lock()
	defer sharedRefs.mu.Unlock()
	for _, e := range sharedRefs.entries {
		select {
		case <-e.done:
		default:
			t.Fatal("clearing the reference cache with a computation in flight")
		}
	}
	sharedRefs.entries = make(map[refKey]*refEntry)
	sharedRefs.order = nil
	sharedRefs.bytes = 0
}

// countingCompute wraps compute: it counts calls and holds each one until
// release is closed, so lookups of the same key pile up behind it.
type countingCompute struct {
	calls   atomic.Int64
	release chan struct{}
	compute func(amr.ShockBubble, int, float64, int) (*amr.Reference, error)
}

func newCountingCompute(compute func(amr.ShockBubble, int, float64, int) (*amr.Reference, error)) *countingCompute {
	return &countingCompute{release: make(chan struct{}), compute: compute}
}

func (cc *countingCompute) run(prob amr.ShockBubble, nx int, tEnd float64, nsnap int) (*amr.Reference, error) {
	cc.calls.Add(1)
	<-cc.release
	return cc.compute(prob, nx, tEnd, nsnap)
}

// enableCounters binds the obs handles to a fresh registry for the test.
func enableCounters(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	obs.Enable(reg, nil)
	t.Cleanup(obs.Disable)
	return reg
}

// waitShared blocks until the shared-lookup counter reaches n: that many
// callers found the entry and are waiting on it.
func waitShared(t *testing.T, reg *obs.Registry, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := reg.CounterValue(obs.MetricSimReferenceShared); v >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d shared lookups", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func counter(reg *obs.Registry, name string) int64 {
	v, _ := reg.CounterValue(name)
	return v
}

// lookup is one caller's outcome.
type lookup struct {
	ref *amr.Reference
	err error
	pan any
}

// lookupAll asks the cache for one key from n goroutines at once. Once the
// first caller is computing and the other n-1 wait on its entry, the
// computation is released.
func lookupAll(t *testing.T, reg *obs.Registry, c *refCache, cc *countingCompute, n int, prob amr.ShockBubble, nx int, tEnd float64, nsnap int) []lookup {
	t.Helper()
	base := counter(reg, obs.MetricSimReferenceShared)
	out := make([]lookup, n)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { out[i].pan = recover() }()
			out[i].ref, out[i].err = c.get(prob, nx, tEnd, nsnap)
		}()
	}
	waitShared(t, reg, base+int64(n-1))
	close(cc.release)
	wg.Wait()
	return out
}

// assertEmpty checks that the cache holds nothing.
func assertEmpty(t *testing.T, c *refCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != 0 || len(c.order) != 0 || c.bytes != 0 {
		t.Fatalf("cache not empty: %d entries, %d ordered, %d bytes", len(c.entries), len(c.order), c.bytes)
	}
}

var cacheProb = amr.ShockBubble{R0: 0.3, RhoIn: 0.1}

// TestRefCacheOneComputationPerKey: eight concurrent lookups of one key
// run one computation and share its reference; a second config (another
// snapshot count) computes its own, and a repeat lookup computes nothing.
func TestRefCacheOneComputationPerKey(t *testing.T) {
	reg := enableCounters(t)
	cc := newCountingCompute(amr.ReferenceRun)
	c := newRefCache(refCacheBudget, cc.run)
	got := lookupAll(t, reg, c, cc, 8, cacheProb, 32, 0.02, 3)
	for i, g := range got {
		if g.err != nil || g.pan != nil {
			t.Fatalf("caller %d: err %v, panic %v", i, g.err, g.pan)
		}
		if g.ref != got[0].ref {
			t.Fatalf("caller %d got a different reference", i)
		}
	}
	if n := cc.calls.Load(); n != 1 {
		t.Fatalf("%d computations for one key, want 1", n)
	}
	other, err := c.get(cacheProb, 32, 0.02, 4)
	if err != nil {
		t.Fatal(err)
	}
	if other == got[0].ref || len(other.Snapshots) != 4 {
		t.Fatalf("second config shared the first's reference (%d snapshots)", len(other.Snapshots))
	}
	again, err := c.get(cacheProb, 32, 0.02, 3)
	if err != nil || again != got[0].ref {
		t.Fatalf("repeat lookup: err %v, same reference %v", err, again == got[0].ref)
	}
	if n := cc.calls.Load(); n != 2 {
		t.Fatalf("%d computations for two keys, want 2", n)
	}
	if runs, shared := counter(reg, obs.MetricSimReferenceRuns), counter(reg, obs.MetricSimReferenceShared); runs != 2 || shared != 8 {
		t.Fatalf("counters: runs %d shared %d, want 2 and 8", runs, shared)
	}

	// Labs with one config share the process-wide entry; another snapshot
	// count gets its own reference.
	clearSharedRefs(t)
	combo := dataset.Combo{P: 8, Mx: 8, MaxLevel: 3, R0: 0.3, RhoIn: 0.1}
	refOf := func(cfg SimLabConfig) *amr.Reference {
		lab := NewSimLab(cfg)
		if _, err := lab.Run(combo); err != nil {
			t.Fatal(err)
		}
		return lab.refs[[2]float64{combo.R0, combo.RhoIn}]
	}
	a := refOf(SimLabConfig{RefNx: 32, RefTEnd: 0.05, RefSnaps: 3, Seed: 1})
	b := refOf(SimLabConfig{RefNx: 32, RefTEnd: 0.05, RefSnaps: 3, Seed: 2})
	d := refOf(SimLabConfig{RefNx: 32, RefTEnd: 0.05, RefSnaps: 4, Seed: 1})
	if a != b {
		t.Fatal("two labs with one config solved the reference twice")
	}
	if d == a || len(d.Snapshots) != 4 {
		t.Fatal("a lab with another snapshot count reused the reference")
	}
}

// TestRefCacheErrorNotCached: an invalid config returns ReferenceRun's
// error to every waiting caller and leaves nothing cached.
func TestRefCacheErrorNotCached(t *testing.T) {
	reg := enableCounters(t)
	_, want := amr.ReferenceRun(cacheProb, 33, 0.05, 3)
	if want == nil {
		t.Fatal("nx 33 accepted")
	}
	cc := newCountingCompute(amr.ReferenceRun)
	c := newRefCache(refCacheBudget, cc.run)
	for i, g := range lookupAll(t, reg, c, cc, 8, cacheProb, 33, 0.05, 3) {
		if g.ref != nil || g.err == nil || g.err.Error() != want.Error() || g.pan != nil {
			t.Fatalf("caller %d: ref %v err %v panic %v, want error %q", i, g.ref, g.err, g.pan, want)
		}
	}
	assertEmpty(t, c)
	if _, err := c.get(cacheProb, 33, 0.05, 3); err == nil {
		t.Fatal("retry succeeded")
	}
	if n := cc.calls.Load(); n != 2 {
		t.Fatalf("%d computations, want 2: the failure must not be cached", n)
	}
	assertEmpty(t, c)

	// Through a lab: the process-wide cache keeps no entry for the config.
	lab := NewSimLab(SimLabConfig{RefNx: 33, RefTEnd: 0.05, RefSnaps: 3})
	if _, err := lab.Run(dataset.Combo{P: 8, Mx: 8, MaxLevel: 3, R0: 0.3, RhoIn: 0.1}); err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Fatalf("lab error %v, want it to carry %q", err, want)
	}
	sharedRefs.mu.Lock()
	defer sharedRefs.mu.Unlock()
	for k := range sharedRefs.entries {
		if k.nx == 33 {
			t.Fatal("failed reference kept in the shared cache")
		}
	}
}

// TestRefCachePanicReleasesWaiters: a computation that panics releases
// every waiter with an error, re-raises on the computing goroutine, and
// leaves nothing cached.
func TestRefCachePanicReleasesWaiters(t *testing.T) {
	reg := enableCounters(t)
	cc := newCountingCompute(func(amr.ShockBubble, int, float64, int) (*amr.Reference, error) {
		panic("solver blew up")
	})
	c := newRefCache(refCacheBudget, cc.run)
	var panicked, failed int
	for i, g := range lookupAll(t, reg, c, cc, 8, cacheProb, 32, 0.05, 3) {
		switch {
		case g.pan != nil:
			if g.pan != "solver blew up" {
				t.Fatalf("caller %d re-raised %v", i, g.pan)
			}
			panicked++
		case g.err != nil && strings.Contains(g.err.Error(), "solver blew up") && g.ref == nil:
			failed++
		default:
			t.Fatalf("caller %d: ref %v err %v", i, g.ref, g.err)
		}
	}
	if panicked != 1 || failed != 7 {
		t.Fatalf("%d callers panicked and %d failed, want 1 and 7", panicked, failed)
	}
	assertEmpty(t, c)
}

// TestRefCacheBudget: finished references are evicted oldest first, the
// cache never holds more than its budget, and a reference larger than the
// budget or under a non-finite key is returned without being kept.
func TestRefCacheBudget(t *testing.T) {
	var calls int
	c := newRefCache(800, func(_ amr.ShockBubble, nx int, _ float64, _ int) (*amr.Reference, error) {
		calls++ // nx float64s of snapshot data: 8·nx bytes
		return &amr.Reference{Snapshots: []amr.RefSnapshot{{Grad: make([]float64, nx)}}}, nil
	})
	held := func() []int {
		c.mu.Lock()
		defer c.mu.Unlock()
		var nxs []int
		var sum int64
		for _, k := range c.order {
			nxs = append(nxs, k.nx)
			sum += refBytes(c.entries[k].ref)
		}
		if len(c.entries) != len(c.order) || sum != c.bytes || c.bytes > c.budget {
			t.Fatalf("%d entries, %d ordered, %d bytes (sum %d) over budget %d", len(c.entries), len(c.order), c.bytes, sum, c.budget)
		}
		return nxs
	}
	get := func(prob amr.ShockBubble, nx int) {
		t.Helper()
		ref, err := c.get(prob, nx, 0.1, 2)
		if err != nil || len(ref.Snapshots[0].Grad) != nx {
			t.Fatalf("get nx=%d: %v", nx, err)
		}
	}
	for _, step := range []struct {
		nx    int
		calls int
		held  []int
	}{
		{40, 1, []int{40}},
		{30, 2, []int{40, 30}},
		{20, 3, []int{40, 30, 20}},
		{25, 4, []int{30, 20, 25}}, // 920 bytes: the oldest goes
		{30, 4, []int{30, 20, 25}}, // a hit does not reorder
		{60, 5, []int{25, 60}},     // 1,080 bytes: the two oldest go
		{101, 6, []int{25, 60}},    // 808 bytes: over the whole budget
		{101, 7, []int{25, 60}},
		{100, 8, []int{100}}, // exactly the budget
	} {
		get(cacheProb, step.nx)
		if calls != step.calls {
			t.Fatalf("after nx=%d: %d computations, want %d", step.nx, calls, step.calls)
		}
		if got := held(); !equalInts(got, step.held) {
			t.Fatalf("after nx=%d: holding %v, want %v", step.nx, got, step.held)
		}
	}
	nan := cacheProb
	nan.RhoIn = math.NaN()
	get(nan, 10)
	get(nan, 10)
	if calls != 10 {
		t.Fatalf("non-finite key: %d computations, want 10", calls)
	}
	if got := held(); !equalInts(got, []int{100}) {
		t.Fatalf("non-finite key cached: holding %v", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Sim-lab pins, captured before the process-wide reference cache existed
// and before snapshots lost their max-pool tables: the sha256 of every
// RunSeeded output over the 1,920-combination grid (RefNx 32, RefTEnd
// 0.05, RefSnaps 3, noise seeds SplitSeed(2018, i)), and of the
// MarshalIndent'ed Results of the canonical online-sim and online-fidelity
// specs cut to ref_nx 32 and 8 experiments.
const (
	pinRunSeeded      = "4b7f889dbfd6d61d3d52c6541e2b862d790fdd6362a759eaba12cf8a0f558a01"
	pinOnlineSim      = "57dd78d41866ece238d9fb58b2d0ad51968a2a31ebfe1dd966b39c08c7d7cfaa"
	pinOnlineFidelity = "5b02ee17600ef91c8e507a7a4f1087e1f1744fbd2db7cabcd3b3b64552c7a643"
)

var pinnedSpecs = []struct{ json, digest string }{
	{`{"version":1,"name":"sim-campaign","mode":"online","policy":{"name":"rgma"},"seed":17,
	  "online":{"lab":{"name":"sim","ref_nx":32},"max_experiments":8}}`, pinOnlineSim},
	{`{"version":1,"name":"fidelity-online","mode":"online","policy":{"name":"costperinfo"},"seed":17,
	  "fidelity":{"levels":[3,4,6]},"online":{"lab":{"name":"sim","ref_nx":32},"max_experiments":8}}`, pinOnlineFidelity},
}

// runSeededDigest hashes the bits of every job a lab returns over the grid.
func runSeededDigest(lab *SimLab) (string, error) {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for i, c := range dataset.AllCombos() {
		job, err := lab.RunSeeded(c, stats.SplitSeed(2018, i))
		if err != nil {
			return "", err
		}
		put(uint64(job.P))
		put(uint64(job.Mx))
		put(uint64(job.MaxLevel))
		for _, v := range []float64{job.R0, job.RhoIn, job.WallSec, job.CostNH, job.MemMB} {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// specDigest runs a spec-built campaign and hashes its Result bytes.
func specDigest(raw string) (string, error) {
	spec, err := engine.ParseCampaignSpec([]byte(raw))
	if err != nil {
		return "", err
	}
	res, err := RunSpec(spec, nil)
	if err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(append(b, '\n'))
	return hex.EncodeToString(sum[:]), nil
}

// TestSimLabBitsPinned: the sim lab's outputs keep every bit whether its
// references are solved fresh, shared from a warm cache, or shared between
// two campaigns running at once.
func TestSimLabBitsPinned(t *testing.T) {
	checkGrid := func(phase string) {
		t.Helper()
		lab := NewSimLab(SimLabConfig{RefNx: 32, RefTEnd: 0.05, RefSnaps: 3})
		got, err := runSeededDigest(lab)
		if err != nil {
			t.Fatal(err)
		}
		if got != pinRunSeeded {
			t.Fatalf("%s: RunSeeded digest %s, want %s", phase, got, pinRunSeeded)
		}
		if n := lab.NumReferenceRuns(); n != 24 {
			t.Fatalf("%s: lab used %d references, want 24", phase, n)
		}
	}
	checkSpecs := func(phase string, concurrent bool) {
		t.Helper()
		got := make([]string, len(pinnedSpecs))
		errs := make([]error, len(pinnedSpecs))
		var wg sync.WaitGroup
		for i, s := range pinnedSpecs {
			run := func() { got[i], errs[i] = specDigest(s.json) }
			if !concurrent {
				run()
				continue
			}
			wg.Add(1)
			go func() { defer wg.Done(); run() }()
		}
		wg.Wait()
		for i, s := range pinnedSpecs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if got[i] != s.digest {
				t.Fatalf("%s: spec %d Result digest %s, want %s", phase, i, got[i], s.digest)
			}
		}
	}
	clearSharedRefs(t)
	checkGrid("cleared cache")
	checkGrid("warm cache")
	checkSpecs("cleared cache", false)
	checkSpecs("warm cache", false)
	clearSharedRefs(t)
	checkSpecs("concurrent campaigns", true)
}
