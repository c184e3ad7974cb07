package online

import (
	"fmt"
	"math"
	"sync"

	"alamr/internal/amr"
	"alamr/internal/obs"
)

// refCacheBudget bounds the data the process-wide reference cache holds:
// 16 MiB of snapshots and emulations. The 24 references of the paper's
// (r0, rhoin) grid take about 2.4 MB at the sim lab's default resolution
// (ref_nx 64, 6 snapshots) and 9.4 MB at ref_nx 128; the 16 emulations a
// reference serves on the paper's grid add 4 KB to it.
const refCacheBudget = 16 << 20

// emulationBytes is what one stored emulation is charged against the
// budget: the EmulationStats value, its per-level peak slice, its
// configuration key and the map slot holding them, rounded up.
const emulationBytes = 256

// sharedRefs is the reference cache every SimLab in the process shares. A
// reference is a pure function of its key, and an emulation a pure
// function of its reference and mesh configuration, so campaigns — the
// daemon's, a sweep's, an experiment's — solve each physics problem and
// emulate each configuration on it once between them instead of once per
// lab or per experiment. It is process-wide because the "sim" lab
// registry builds each lab from its spec alone, with no handle on the
// daemon or sweep that runs it.
var sharedRefs = newRefCache(refCacheBudget, amr.ReferenceRun)

// refKey identifies one reference solution: the whole problem, and the
// grid, horizon and snapshot count after NewSimLab's defaults.
type refKey struct {
	prob  amr.ShockBubble
	nx    int
	tEnd  float64
	nsnap int
}

// finite reports whether every float in the key is finite. A NaN key could
// never be found again in the map, not even to delete it.
func (k refKey) finite() bool {
	for _, v := range []float64{k.prob.Mach, k.prob.ShockX, k.prob.CX, k.prob.CY, k.prob.R0, k.prob.RhoIn, k.tEnd} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// refEntry is one reference, being computed until done is closed; ref and
// err are set before that.
type refEntry struct {
	done chan struct{}
	ref  *amr.Reference
	err  error

	// emu holds the emulations computed on ref, by configuration, while the
	// cache keeps the entry: nil for a reference it does not keep, and
	// dropped when it evicts the entry. size is what the entry is charged:
	// its snapshot bytes plus emulationBytes per stored emulation. Both are
	// guarded by the cache's mu.
	emu  map[amr.EmulateConfig]amr.EmulationStats
	size int64
}

// refCache computes each reference once per key: concurrent lookups of a
// key wait for the one computation in flight, and finished references stay
// until the byte budget evicts them, oldest first. Failed and panicked
// computations are not kept. A kept reference also keeps the emulations
// asked of it (emulate), charged to the same budget and evicted with it.
type refCache struct {
	// compute solves one reference (amr.ReferenceRun; tests substitute a
	// counting or failing function).
	compute func(prob amr.ShockBubble, nx int, tEnd float64, nsnap int) (*amr.Reference, error)
	budget  int64

	mu      sync.Mutex
	entries map[refKey]*refEntry // in flight and finished
	order   []refKey             // finished entries, oldest first
	bytes   int64                // the finished entries' sizes
}

func newRefCache(budget int64, compute func(amr.ShockBubble, int, float64, int) (*amr.Reference, error)) *refCache {
	return &refCache{compute: compute, budget: budget, entries: make(map[refKey]*refEntry)}
}

// get returns the entry holding the reference for the key, computing the
// reference at most once however many callers ask at the same time. No
// lock is held while it is solved. On error it returns a nil entry.
func (c *refCache) get(prob amr.ShockBubble, nx int, tEnd float64, nsnap int) (*refEntry, error) {
	k := refKey{prob: prob, nx: nx, tEnd: tEnd, nsnap: nsnap}
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		c.mu.Unlock()
		obs.SimReferenceShared.Inc()
		<-e.done
		if e.err != nil {
			return nil, e.err
		}
		return e, nil
	}
	e := &refEntry{done: make(chan struct{})}
	keep := k.finite()
	if keep {
		c.entries[k] = e
	}
	c.mu.Unlock()
	obs.SimReferenceRuns.Inc()

	finished := false
	defer func() {
		if finished {
			return
		}
		// The computation panicked (or exited its goroutine): release the
		// waiters with an error, drop the entry, and let the panic go on.
		r := recover()
		c.finish(k, e, nil, fmt.Errorf("online: reference computation panicked: %v", r), keep)
		if r != nil {
			panic(r)
		}
	}()
	ref, err := c.compute(prob, nx, tEnd, nsnap)
	finished = true
	c.finish(k, e, ref, err, keep)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// finish publishes a computation's outcome to its waiters. A kept success
// joins the eviction order and evicts the oldest finished entries until
// the cache fits its budget; a failure, or a reference larger than the
// whole budget, leaves the cache.
func (c *refCache) finish(k refKey, e *refEntry, ref *amr.Reference, err error, keep bool) {
	size := refBytes(ref)
	c.mu.Lock()
	e.ref, e.err = ref, err
	if keep {
		if err != nil || size > c.budget {
			delete(c.entries, k)
		} else {
			e.emu = make(map[amr.EmulateConfig]amr.EmulationStats)
			e.size = size
			c.order = append(c.order, k)
			c.bytes += size
			c.shrink()
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// shrink evicts the oldest finished entries, their emulations with them,
// until the cache fits its budget. The caller holds mu.
func (c *refCache) shrink() {
	for c.bytes > c.budget {
		old := c.entries[c.order[0]]
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
		c.bytes -= old.size
		old.emu, old.size = nil, 0
	}
}

// emulate returns amr.Emulate(e.ref, cfg) for an entry get returned. While
// the cache keeps the entry, each configuration is emulated once and its
// stats are stored with the entry; an entry it does not keep, or has
// evicted, emulates every time. No lock is held while emulating: two
// callers may compute one configuration at once, and the first result
// stored is the one every later caller gets (Emulate is pure, so both are
// equal). Errors are not stored. A stored result is shared by every
// caller: its PatchesPerLevelPeak is read-only (cluster.Machine.Simulate
// only reads it).
func (c *refCache) emulate(e *refEntry, cfg amr.EmulateConfig) (amr.EmulationStats, error) {
	c.mu.Lock()
	st, ok := e.emu[cfg]
	c.mu.Unlock()
	if ok {
		obs.SimEmulationsShared.Inc()
		return st, nil
	}
	obs.SimEmulations.Inc()
	st, err := amr.Emulate(e.ref, cfg)
	if err != nil {
		return st, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := e.emu[cfg]; ok {
		return first, nil
	}
	if e.emu != nil {
		e.emu[cfg] = st
		e.size += emulationBytes
		c.bytes += emulationBytes
		c.shrink()
	}
	return st, nil
}

// refBytes is the snapshot data a reference holds.
func refBytes(ref *amr.Reference) int64 {
	if ref == nil {
		return 0
	}
	var n int64
	for _, s := range ref.Snapshots {
		n += 8 * int64(len(s.Grad))
	}
	return n
}
