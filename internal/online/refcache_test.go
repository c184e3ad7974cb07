package online

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alamr/internal/amr"
	"alamr/internal/cluster"
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
			e, err := c.get(prob, nx, tEnd, nsnap)
			if e != nil {
				out[i].ref = e.ref
			}
			out[i].err = err
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
	if other.ref == got[0].ref || len(other.ref.Snapshots) != 4 {
		t.Fatalf("second config shared the first's reference (%d snapshots)", len(other.ref.Snapshots))
	}
	again, err := c.get(cacheProb, 32, 0.02, 3)
	if err != nil || again.ref != got[0].ref {
		t.Fatalf("repeat lookup: err %v, same reference %v", err, again.ref == got[0].ref)
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
		return lab.refs[[2]float64{combo.R0, combo.RhoIn}].ref
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
		e, err := c.get(prob, nx, 0.1, 2)
		if err != nil || len(e.ref.Snapshots[0].Grad) != nx {
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

// TestSimLabEmulationCache: eight goroutines run the whole grid through two
// labs at once. Each (reference, configuration) is emulated once — the
// goroutines split the grid by that key, so no two ask for one key at the
// same time and "once" is exact — and every other run is answered from
// the cache; every stored emulation equals a direct amr.Emulate on its
// reference; and every job equals a fresh computation with a fresh noise
// source, bit for bit.
func TestSimLabEmulationCache(t *testing.T) {
	reg := enableCounters(t)
	clearSharedRefs(t)
	cfg := SimLabConfig{RefNx: 32, RefTEnd: 0.05, RefSnaps: 3}
	labs := [2]*SimLab{NewSimLab(cfg), NewSimLab(cfg)}
	type emuKey struct {
		pair    [2]float64
		mx, lvl int
	}
	combos := dataset.AllCombos()
	var keys []emuKey
	byKey := make(map[emuKey][]int)
	for i, c := range combos {
		k := emuKey{[2]float64{c.R0, c.RhoIn}, c.Mx, c.MaxLevel}
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	jobs := make([][2]dataset.Job, len(combos))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := g; k < len(keys); k += 8 {
				for _, i := range byKey[keys[k]] {
					for l, lab := range labs {
						job, err := lab.RunSeeded(combos[i], stats.SplitSeed(2018, i))
						if err != nil {
							t.Error(err)
							return
						}
						jobs[i][l] = job
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	runs := int64(2 * len(combos))
	if got, shared := counter(reg, obs.MetricSimEmulations), counter(reg, obs.MetricSimEmulationsShared); got != int64(len(keys)) || shared != runs-int64(len(keys)) {
		t.Fatalf("%d emulations computed and %d shared over %d runs, want %d and %d", got, shared, runs, len(keys), runs-int64(len(keys)))
	}

	sharedRefs.mu.Lock()
	defer sharedRefs.mu.Unlock()
	stored := 0
	for k, e := range sharedRefs.entries {
		if k.nx != 32 {
			continue
		}
		for c, st := range e.emu {
			want, err := amr.Emulate(e.ref, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st, want) {
				t.Fatalf("stored emulation %+v differs from amr.Emulate: %+v vs %+v", c, st, want)
			}
			stored++
		}
		if want := refBytes(e.ref) + int64(len(e.emu))*emulationBytes; e.size != want {
			t.Fatalf("entry charged %d bytes, want %d", e.size, want)
		}
	}
	if stored != len(keys) {
		t.Fatalf("%d emulations stored, want %d", stored, len(keys))
	}
	machine := NewSimLab(cfg).machine
	for i, c := range combos {
		e := labs[0].refs[[2]float64{c.R0, c.RhoIn}]
		if labs[1].refs[[2]float64{c.R0, c.RhoIn}] != e {
			t.Fatalf("the two labs hold different entries for (%g, %g)", c.R0, c.RhoIn)
		}
		st, err := amr.Emulate(e.ref, amr.EmulateConfig{Mx: c.Mx, MaxLevel: c.MaxLevel, RootsX: 8, RootsY: 4})
		if err != nil {
			t.Fatal(err)
		}
		acc, err := machine.Simulate(cluster.JobSpec{Nodes: c.P, Mx: c.Mx, Stats: st}, rand.New(rand.NewSource(stats.SplitSeed(2018, i))))
		if err != nil {
			t.Fatal(err)
		}
		want := dataset.Job{P: c.P, Mx: c.Mx, MaxLevel: c.MaxLevel, R0: c.R0, RhoIn: c.RhoIn,
			WallSec: acc.WallClockSec, CostNH: acc.CostNodeHours, MemMB: acc.MaxRSSBytes / (1 << 20)}
		for l := range labs {
			if jobs[i][l] != want {
				t.Fatalf("combo %d lab %d: job %+v, fresh computation %+v", i, l, jobs[i][l], want)
			}
		}
	}
}

// TestEmulationCacheBudget: emulations are charged to their reference's
// entry and leave with it when the budget evicts it, after which that
// reference emulates directly; a reference the cache does not keep (over
// the whole budget, or under a non-finite key) stores nothing.
func TestEmulationCacheBudget(t *testing.T) {
	reg := enableCounters(t)
	// Every reference is the nx 16 solution of cacheProb (2 snapshots of
	// 16×8 cells, 2,048 bytes), whatever problem the key names.
	solve := func(_ amr.ShockBubble, nx int, tEnd float64, nsnap int) (*amr.Reference, error) {
		return amr.ReferenceRun(cacheProb, nx, tEnd, nsnap)
	}
	const refSize = 2 * 16 * 8 * 8
	cfgs := []amr.EmulateConfig{{Mx: 8, MaxLevel: 3, RootsX: 8, RootsY: 4}, {Mx: 16, MaxLevel: 2, RootsX: 8, RootsY: 4}}
	c := newRefCache(2*refSize+2*emulationBytes, solve)
	get := func(r0 float64) *refEntry {
		t.Helper()
		e, err := c.get(amr.ShockBubble{R0: r0, RhoIn: 0.1}, 16, 0.02, 2)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	emulate := func(c *refCache, e *refEntry, cfg amr.EmulateConfig, computed, shared int64) {
		t.Helper()
		before, beforeShared := counter(reg, obs.MetricSimEmulations), counter(reg, obs.MetricSimEmulationsShared)
		st, err := c.emulate(e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := amr.Emulate(e.ref, cfg)
		if err != nil || !reflect.DeepEqual(st, want) {
			t.Fatalf("emulate %+v: %+v, amr.Emulate %+v (%v)", cfg, st, want, err)
		}
		if d, ds := counter(reg, obs.MetricSimEmulations)-before, counter(reg, obs.MetricSimEmulationsShared)-beforeShared; d != computed || ds != shared {
			t.Fatalf("emulate %+v: %d computed and %d shared, want %d and %d", cfg, d, ds, computed, shared)
		}
	}
	holding := func(want int64) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		var sum int64
		for _, k := range c.order {
			sum += c.entries[k].size
		}
		if sum != c.bytes || c.bytes != want || c.bytes > c.budget {
			t.Fatalf("cache holds %d bytes (entries sum to %d), want %d within %d", c.bytes, sum, want, c.budget)
		}
	}

	a := get(0.2)
	emulate(c, a, cfgs[0], 1, 0)
	emulate(c, a, cfgs[1], 1, 0)
	emulate(c, a, cfgs[0], 0, 1)
	holding(refSize + 2*emulationBytes)
	b := get(0.3)
	holding(2*refSize + 2*emulationBytes)
	emulate(c, b, cfgs[0], 1, 0) // one emulation over the budget: a goes
	holding(refSize + emulationBytes)
	if a.emu != nil || a.size != 0 {
		t.Fatalf("evicted entry kept %d emulations, %d bytes", len(a.emu), a.size)
	}
	emulate(c, a, cfgs[0], 1, 0)
	emulate(c, a, cfgs[0], 1, 0)
	holding(refSize + emulationBytes)

	// Under a NaN key, and over the whole budget: kept by the caller only.
	nan := cacheProb
	nan.RhoIn = math.NaN()
	e, err := c.get(nan, 16, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	emulate(c, e, cfgs[1], 1, 0)
	emulate(c, e, cfgs[1], 1, 0)
	holding(refSize + emulationBytes)
	small := newRefCache(refSize-1, solve)
	if e, err = small.get(cacheProb, 16, 0.02, 2); err != nil {
		t.Fatal(err)
	}
	emulate(small, e, cfgs[1], 1, 0)
	emulate(small, e, cfgs[1], 1, 0)
	assertEmpty(t, small)
}
