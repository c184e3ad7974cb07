package mat

import (
	"runtime"
	"sync"
	"sync/atomic"

	"alamr/internal/obs"
)

// This file implements the parallel compute layer used by the dense kernels
// in this package (and, through it, by kernel-matrix assembly and GP
// fitting). Three properties drive the design:
//
//  1. Determinism. Parallel execution must produce results bitwise-identical
//     to serial execution, for any worker count, so that the repo's
//     seeded-determinism guarantee survives. Every parallel operation
//     therefore partitions its output so that each element is computed in
//     full by exactly one goroutine, using a floating-point evaluation order
//     that is a fixed function of the problem size only (never of the worker
//     count or chunk boundaries). Reductions that cross the partition
//     (ParallelSum) use fixed-size blocks whose partial sums are combined in
//     ascending block order.
//
//  2. Thresholding. Work smaller than a grain size runs inline on the
//     calling goroutine; dispatch overhead must never dominate early AL
//     iterations where n is tiny.
//
//  3. Deadlock freedom under nesting. The caller of ParallelFor always
//     participates in executing its own chunks, and pool workers never block
//     waiting for other chunks, so nested parallel sections (e.g. a parallel
//     Predict whose per-point solves are themselves parallel-capable) cannot
//     deadlock: in the worst case the inner section degrades to serial
//     execution on the calling goroutine.
type parallelPool struct {
	mu      sync.Mutex
	tasks   chan func()
	started int // goroutines launched so far
}

var (
	pool parallelPool
	// workerTarget is the number of chunks a parallel section is split into.
	// It defaults to GOMAXPROCS and is adjustable (primarily by tests and
	// benchmarks) via SetWorkers. It does not affect numerical results.
	workerTarget atomic.Int64
)

func init() {
	workerTarget.Store(int64(runtime.GOMAXPROCS(0)))
}

// Workers reports the current parallelism target.
func Workers() int { return int(workerTarget.Load()) }

// SetWorkers sets the parallelism target (clamped to at least 1) and returns
// the previous value. n = 1 forces every operation in this package down its
// serial path. Results are bitwise-identical for every setting; this is a
// throughput knob, not a semantics knob.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(workerTarget.Swap(int64(n)))
}

// offer hands a helper function to the pool without ever blocking: if no
// pool capacity is available the offer is dropped and the caller simply does
// the work itself.
func (p *parallelPool) offer(fn func(), want int) {
	p.mu.Lock()
	if p.tasks == nil {
		p.tasks = make(chan func(), 4*runtime.GOMAXPROCS(0))
	}
	// Lazily grow the pool up to the requested helper count.
	for p.started < want {
		p.started++
		go func() {
			for t := range p.tasks {
				t()
			}
		}()
	}
	p.mu.Unlock()
	select {
	case p.tasks <- fn:
	default:
	}
}

// ParallelFor runs fn over contiguous chunks of [0, n). minChunk is the
// smallest range worth dispatching to another goroutine; when n < 2*minChunk
// (or the worker target is 1) fn runs inline as fn(0, n).
//
// fn must treat its [lo, hi) range as exclusively owned. Chunk boundaries
// are not part of the numerical contract: fn must produce, for each index,
// the same value regardless of how the range is split (which holds
// automatically when each output element is computed in full from inputs
// that are read-only during the call).
func ParallelFor(n, minChunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	w := Workers()
	if w == 1 || n < 2*minChunk {
		obs.MatInline.Inc()
		fn(0, n)
		return
	}
	obs.MatDispatch.Inc()
	obs.MatWorkers.Set(float64(w))
	nchunks := (n + minChunk - 1) / minChunk
	if nchunks > w {
		nchunks = w
	}
	size := (n + nchunks - 1) / nchunks
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(nchunks)
	run := func() {
		for {
			id := int(next.Add(1)) - 1
			if id >= nchunks {
				return
			}
			lo := id * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			fn(lo, hi)
			wg.Done()
		}
	}
	for i := 0; i < nchunks-1; i++ {
		pool.offer(run, w-1)
	}
	run() // the caller participates, guaranteeing progress
	wg.Wait()
}

// ParallelWorkers runs fn(0) … fn(w-1) concurrently over the package worker
// pool, with the caller participating. Unlike ParallelFor — which splits one
// index range into interchangeable chunks — each body here has an identity:
// fn(i) typically owns per-worker state (scratch slabs, partial heaps)
// indexed by i, and every body runs exactly once. The usual pool discipline
// applies: helpers are offered without blocking and the caller claims any
// body no helper picked up, so in the worst case (w == 1, a saturated pool,
// or SetWorkers(1)) all bodies run serially on the calling goroutine and
// nothing deadlocks. Like ParallelFor, this is a throughput surface only:
// callers must arrange that results do not depend on which goroutine runs
// which body, or on how bodies interleave.
func ParallelWorkers(w int, fn func(worker int)) {
	if w <= 0 {
		return
	}
	if w == 1 || Workers() == 1 {
		obs.MatInline.Inc()
		for i := 0; i < w; i++ {
			fn(i)
		}
		return
	}
	obs.MatDispatch.Inc()
	obs.MatWorkers.Set(float64(Workers()))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	run := func() {
		for {
			id := int(next.Add(1)) - 1
			if id >= w {
				return
			}
			fn(id)
			wg.Done()
		}
	}
	for i := 0; i < w-1; i++ {
		pool.offer(run, Workers()-1)
	}
	run() // the caller participates, guaranteeing progress
	wg.Wait()
}

// sumBlock is the fixed reduction block size used by ParallelSum. It is a
// constant so that the grouping of partial sums — and therefore the
// floating-point result — is a function of n alone.
const sumBlock = 64

// ParallelSum computes Σ fn(lo, hi) over fixed-size blocks of [0, n),
// combining the per-block partial sums in ascending block order. Because
// the block decomposition does not depend on the worker count, the result
// is bitwise-identical for any parallelism setting. minBlockWork is the
// approximate scalar work per index, used only for the serial threshold.
func ParallelSum(n int, minBlockWork int, fn func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	nblocks := (n + sumBlock - 1) / sumBlock
	if nblocks == 1 {
		return fn(0, n)
	}
	partials := make([]float64, nblocks)
	minChunk := 1
	if minBlockWork > 0 {
		if mc := grainFlops / (minBlockWork * sumBlock); mc > 1 {
			minChunk = mc
		}
	}
	ParallelFor(nblocks, minChunk, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			blo := b * sumBlock
			bhi := blo + sumBlock
			if bhi > n {
				bhi = n
			}
			partials[b] = fn(blo, bhi)
		}
	})
	var s float64
	for _, p := range partials {
		s += p
	}
	return s
}

// grainFlops is the approximate amount of scalar work that justifies
// dispatching a chunk to another goroutine.
const grainFlops = 1 << 15

// ChunkFor converts an estimate of scalar work per item into a ParallelFor
// minChunk value: items cheaper than the dispatch grain are batched so that
// each chunk carries enough work to be worth a goroutine.
func ChunkFor(workPerItem int) int {
	if workPerItem <= 0 {
		return 1
	}
	mc := grainFlops / workPerItem
	if mc < 1 {
		return 1
	}
	return mc
}

// dot4 is the unrolled inner product used by the dense kernels in this
// package: four independent accumulators combined as (s0+s1)+(s2+s3), with
// the tail folded into s0. The evaluation order is a fixed function of the
// slice length, which keeps every caller deterministic. Breaking the single
// accumulator dependency chain of a naive dot is worth ~2-3x on its own:
// each FMA no longer waits on the previous one.
func dot4(a, b []float64) float64 {
	n := len(a)
	b = b[:n] // bounds-check elimination hint
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// dot4Strided is dot4(a, v) for the vector v[j] = y[j·stride], with
// dot4's operations in dot4's order.
func dot4Strided(a, y []float64, stride int) float64 {
	n := len(a)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * y[i*stride]
		s1 += a[i+1] * y[(i+1)*stride]
		s2 += a[i+2] * y[(i+2)*stride]
		s3 += a[i+3] * y[(i+3)*stride]
	}
	for ; i < n; i++ {
		s0 += a[i] * y[i*stride]
	}
	return (s0 + s1) + (s2 + s3)
}

// DotBlocked is the exported form of the dispatching deterministic inner
// product. Unlike Dot it does not promise the naive left-to-right summation
// order; it promises a fixed order for a given length (and, across machines,
// instruction set), which is what the parallel layer needs.
func DotBlocked(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: DotBlocked length mismatch")
	}
	return adot(a, b)
}

// TraceMulElem returns the Frobenius inner product Σ_ij a_ij·b_ij, the
// tr(AᵀB) term of the LML gradient, computed row-parallel with a
// deterministic block-ordered reduction.
func TraceMulElem(a, b *Dense) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		panic("mat: TraceMulElem shape mismatch")
	}
	return ParallelSum(a.rows, 2*a.cols, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += adot(a.Row(i), b.Row(i))
		}
		return s
	})
}
