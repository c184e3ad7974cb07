package online

import (
	"fmt"
	"math"
	"sync"

	"alamr/internal/amr"
	"alamr/internal/obs"
)

// refCacheBudget bounds the snapshot data the process-wide reference cache
// holds: 16 MiB. The 24 references of the paper's (r0, rhoin) grid take
// about 2.4 MB at the sim lab's default resolution (ref_nx 64, 6
// snapshots) and 9.4 MB at ref_nx 128.
const refCacheBudget = 16 << 20

// sharedRefs is the reference cache every SimLab in the process shares. A
// reference is a pure function of its key, so campaigns — the daemon's,
// a sweep's, an experiment's — solve each physics problem once between
// them instead of once per lab. It is process-wide because the "sim" lab
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
}

// refCache computes each reference once per key: concurrent lookups of a
// key wait for the one computation in flight, and finished references stay
// until the byte budget evicts them, oldest first. Failed and panicked
// computations are not kept.
type refCache struct {
	// compute solves one reference (amr.ReferenceRun; tests substitute a
	// counting or failing function).
	compute func(prob amr.ShockBubble, nx int, tEnd float64, nsnap int) (*amr.Reference, error)
	budget  int64

	mu      sync.Mutex
	entries map[refKey]*refEntry // in flight and finished
	order   []refKey             // finished entries, oldest first
	bytes   int64                // snapshot bytes of the finished entries
}

func newRefCache(budget int64, compute func(amr.ShockBubble, int, float64, int) (*amr.Reference, error)) *refCache {
	return &refCache{compute: compute, budget: budget, entries: make(map[refKey]*refEntry)}
}

// get returns the reference for the key, computing it at most once however
// many callers ask at the same time. No lock is held while it is solved.
func (c *refCache) get(prob amr.ShockBubble, nx int, tEnd float64, nsnap int) (*amr.Reference, error) {
	k := refKey{prob: prob, nx: nx, tEnd: tEnd, nsnap: nsnap}
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		c.mu.Unlock()
		obs.SimReferenceShared.Inc()
		<-e.done
		return e.ref, e.err
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
	return ref, err
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
			c.order = append(c.order, k)
			c.bytes += size
			for c.bytes > c.budget {
				old := c.order[0]
				c.order = c.order[1:]
				c.bytes -= refBytes(c.entries[old].ref)
				delete(c.entries, old)
			}
		}
	}
	c.mu.Unlock()
	close(e.done)
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
