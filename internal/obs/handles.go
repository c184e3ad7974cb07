package obs

import (
	"sync/atomic"
	"time"
)

// Handles are the indirection that makes instrumentation free when
// observability is off. Instrumented packages call the package-level
// handle vars below (obs.CacheHits.Inc(), obs.SpanScore.Start(), ...);
// each handle holds an atomic pointer to its instrument, nil while
// disabled, so a disabled call is one atomic load plus a nil-check no-op.
// Enable/bindHandles swaps live instruments in; Disable swaps nils back.

// CounterHandle is a nil-safe indirection to a Counter.
type CounterHandle struct{ p atomic.Pointer[Counter] }

// Inc adds one; no-op while disabled.
func (h *CounterHandle) Inc() { h.p.Load().Inc() }

// Add adds n; no-op while disabled.
func (h *CounterHandle) Add(n int64) { h.p.Load().Add(n) }

// GaugeHandle is a nil-safe indirection to a Gauge.
type GaugeHandle struct{ p atomic.Pointer[Gauge] }

// Set stores v; no-op while disabled.
func (h *GaugeHandle) Set(v float64) { h.p.Load().Set(v) }

// Add atomically adds delta; no-op while disabled. For gauges that track a
// level (e.g. shards in flight): +1 on entry, -1 on exit.
func (h *GaugeHandle) Add(delta float64) { h.p.Load().Add(delta) }

// HistogramHandle is a nil-safe indirection to a Histogram.
type HistogramHandle struct{ p atomic.Pointer[Histogram] }

// Observe records v; no-op while disabled.
func (h *HistogramHandle) Observe(v float64) { h.p.Load().Observe(v) }

// CounterVecHandle is a nil-safe indirection to a fixed set of labeled
// counters keyed by label value (e.g. fault class). Unknown values are
// silently dropped.
type CounterVecHandle struct {
	p atomic.Pointer[map[string]*Counter]
}

// Inc increments the counter for the given label value; no-op while
// disabled or for unknown values.
func (h *CounterVecHandle) Inc(value string) {
	m := h.p.Load()
	if m == nil {
		return
	}
	(*m)[value].Inc()
}

// HistogramVecHandle is a nil-safe indirection to a fixed set of labeled
// histograms keyed by label value (e.g. HTTP route). Unknown values are
// silently dropped.
type HistogramVecHandle struct {
	p atomic.Pointer[map[string]*Histogram]
}

// Observe records v into the histogram for the given label value; no-op
// while disabled or for unknown values.
func (h *HistogramVecHandle) Observe(value string, v float64) {
	m := h.p.Load()
	if m == nil {
		return
	}
	(*m)[value].Observe(v)
}

// SpanHandle times a named region into a latency histogram and, when a
// tracer is bound, emits a trace event. Usage:
//
//	sp := obs.SpanScore.Start()
//	... work ...
//	sp.End()
//
// While disabled Start returns an inert Span and never reads the clock.
type SpanHandle struct {
	name string
	hist atomic.Pointer[Histogram]
}

// Start begins timing the region; returns an inert Span while disabled.
func (h *SpanHandle) Start() Span {
	hist := h.hist.Load()
	if hist == nil {
		return Span{}
	}
	return Span{name: h.name, hist: hist, start: time.Now()}
}

// Span is an in-flight timed region produced by SpanHandle.Start.
type Span struct {
	name  string
	hist  *Histogram
	start time.Time
}

// End closes the span: observes the elapsed seconds into the handle's
// histogram and emits a trace event if a tracer is bound.
func (s Span) End() { s.EndDetail("") }

// EndDetail is End with a free-form detail string attached to the trace
// event (ignored by the histogram).
func (s Span) EndDetail(detail string) {
	if s.hist == nil {
		return
	}
	d := time.Since(s.start)
	s.hist.Observe(d.Seconds())
	if t := CurrentTracer(); t != nil {
		t.emit(s.name, s.start, d, detail)
	}
}

// The process-wide instrument handles. One var per metric in names.go;
// all no-ops until Enable binds them.
var (
	// AL loop / campaign.
	LoopIterations     CounterHandle
	CampaignViolations CounterHandle
	CampaignCumCost    GaugeHandle
	CampaignCumRegret  GaugeHandle
	CampaignHeadroom   GaugeHandle
	PoolSize           GaugeHandle
	JobCost            HistogramHandle
	JobMem             HistogramHandle

	// Multi-fidelity campaigns.
	FidelityLevels     GaugeHandle
	FidelitySelections CounterVecHandle

	// Loop phase spans (histogram alamr_loop_phase_seconds{phase=...}).
	SpanFit      = SpanHandle{name: PhaseFit}
	SpanHyperopt = SpanHandle{name: PhaseHyperopt}
	SpanScore    = SpanHandle{name: PhaseScore}
	SpanSelect   = SpanHandle{name: PhaseSelect}
	SpanRun      = SpanHandle{name: PhaseRun}
	SpanFeed     = SpanHandle{name: PhaseFeed}

	// GP internals.
	GPRebuilds  CounterHandle
	GPExtends   CounterHandle
	GPTrainRows GaugeHandle

	// ScoringCache.
	CacheHits          CounterHandle
	CacheRebuilds      CounterHandle
	CacheInvalidations CounterHandle
	CacheExtends       CounterHandle

	// Streamed candidate pool. The span histogram times one shard's
	// predict-and-reduce; the in-flight gauge counts shards being scored
	// concurrently (its high-water mark is the achieved parallelism).
	PoolShardsScored     CounterHandle
	PoolShardsPruned     CounterHandle
	PoolCandidatesScored CounterHandle
	PoolCandidatesPruned CounterHandle
	PoolStreamLive       GaugeHandle
	PoolShardsInflight   GaugeHandle
	SpanShardScore       = SpanHandle{name: "pool.shard"}

	// Per-model incremental scoring caches (sparse/treed).
	ModelCacheOps CounterVecHandle

	// mat worker pool.
	MatDispatch CounterHandle
	MatInline   CounterHandle
	MatWorkers  GaugeHandle

	// Faults runtime.
	FaultAttempts CounterHandle
	FaultRetries  CounterHandle
	FaultSuccess  CounterHandle
	FaultCensored CounterHandle
	FaultFatal    CounterHandle
	FaultByClass  CounterVecHandle
	FaultBackoff  HistogramHandle

	// Sim lab reference and emulation cache.
	SimReferenceRuns    CounterHandle
	SimReferenceShared  CounterHandle
	SimEmulations       CounterHandle
	SimEmulationsShared CounterHandle

	// Checkpointing (spans carry both the counter-adjacent trace event and
	// the duration histogram; the counters count completed operations).
	CheckpointWrites      CounterHandle
	CheckpointRestores    CounterHandle
	SpanCheckpointWrite   = SpanHandle{name: "checkpoint.write"}
	SpanCheckpointRestore = SpanHandle{name: "checkpoint.restore"}

	// Remote lab dispatcher (aggregate across workers; the dispatcher also
	// creates per-worker labeled series dynamically).
	RemoteJobsDispatched CounterHandle
	RemoteJobsCompleted  CounterHandle
	RemoteJobsStolen     CounterHandle
	RemoteJobsLost       CounterHandle
	RemoteWorkersLive    GaugeHandle
	RemoteHeartbeat      HistogramHandle

	// Serving daemon (internal/serve).
	ServeSubmitted   CounterHandle
	ServeRejected    CounterVecHandle
	ServeFinished    CounterVecHandle
	ServeResumed     CounterHandle
	ServeQueueDepth  GaugeHandle
	ServeRunning     GaugeHandle
	ServeHTTPSeconds HistogramVecHandle
)

// faultClassValues mirrors faults.Classes(); kept here so obs has no
// dependency on the packages it instruments.
var faultClassValues = []string{"oom", "timeout", "transient", "corrupt", "unknown"}

// modelCacheOpValues enumerates the label values of MetricModelCacheOps.
var modelCacheOpValues = []string{
	ModelCacheSparseExtend, ModelCacheSparseRebuild,
	ModelCacheTreedExtend, ModelCacheTreedRebuild,
}

// serveRejectValues / serveStateValues / serveRouteValues enumerate the
// label values of the serving-daemon vec metrics.
var (
	serveRejectValues = []string{ServeRejectBackpressure, ServeRejectInvalid}
	serveStateValues  = []string{ServeStateDone, ServeStateFailed, ServeStateCancelled}
	serveRouteValues  = []string{ServeRouteSubmit, ServeRouteGet, ServeRouteStatus, ServeRouteCancel, ServeRouteList}
)

// bindHandles points every handle at live instruments in r. Called under
// global.mu by Enable.
func bindHandles(r *Registry) {
	LoopIterations.p.Store(r.Counter(MetricLoopIterations, "AL loop iterations completed"))
	CampaignViolations.p.Store(r.Counter(MetricCampaignViolations, "selected jobs that exceeded the memory limit"))
	CampaignCumCost.p.Store(r.Gauge(MetricCampaignCumCost, "cumulative cost (node-hours) so far"))
	CampaignCumRegret.p.Store(r.Gauge(MetricCampaignCumRegret, "cumulative regret (node-hours wasted on violations) so far"))
	CampaignHeadroom.p.Store(r.Gauge(MetricCampaignHeadroom, "memory headroom of the last run job (limit - MaxRSS, MB)"))
	PoolSize.p.Store(r.Gauge(MetricPoolSize, "candidate pool size"))
	JobCost.p.Store(r.Histogram(MetricJobCost, "per-job cost (node-hours)", CostBuckets))
	JobMem.p.Store(r.Histogram(MetricJobMem, "per-job peak memory (MB)", SizeBuckets))
	FidelityLevels.p.Store(r.Gauge(MetricFidelityLevels, "fidelity-ladder size of the running campaign"))
	fidLevels := make(map[string]*Counter, len(FidelityLevelValues))
	for _, lv := range FidelityLevelValues {
		fidLevels[lv] = r.Counter(Labeled(MetricFidelitySelections, LabelLevel, lv), "AL selections, by fidelity ladder rung")
	}
	FidelitySelections.p.Store(&fidLevels)

	for _, sp := range []*SpanHandle{&SpanFit, &SpanHyperopt, &SpanScore, &SpanSelect, &SpanRun, &SpanFeed} {
		sp.hist.Store(r.Histogram(Labeled(MetricLoopPhaseSeconds, "phase", sp.name),
			"AL loop phase duration (seconds)", LatencyBuckets))
	}

	GPRebuilds.p.Store(r.Counter(MetricGPRebuilds, "full Cholesky factorizations (Fit/Refit)"))
	GPExtends.p.Store(r.Counter(MetricGPExtends, "incremental rank-1 Cholesky extensions (Append)"))
	GPTrainRows.p.Store(r.Gauge(MetricGPTrainRows, "GP training-set size after the last (re)build"))

	CacheHits.p.Store(r.Counter(MetricCacheHits, "ScoringCache.Scores calls served warm"))
	CacheRebuilds.p.Store(r.Counter(MetricCacheRebuilds, "ScoringCache full rebuilds"))
	CacheInvalidations.p.Store(r.Counter(MetricCacheInvalidations, "ScoringCache invalidations (Fit/Refit)"))
	CacheExtends.p.Store(r.Counter(MetricCacheExtends, "ScoringCache incremental extensions (Append)"))

	PoolShardsScored.p.Store(r.Counter(MetricPoolShardsScored, "streamed-pool shards scored"))
	PoolShardsPruned.p.Store(r.Counter(MetricPoolShardsPruned, "streamed-pool shards skipped whole: no live candidate passed the prune bound"))
	PoolCandidatesScored.p.Store(r.Counter(MetricPoolCandidatesScored, "streamed-pool live candidates predicted"))
	PoolCandidatesPruned.p.Store(r.Counter(MetricPoolCandidatesPruned, "streamed-pool live candidates skipped by the per-candidate prune bound"))
	PoolStreamLive.p.Store(r.Gauge(MetricPoolStreamLive, "live candidates in the streamed pool"))
	PoolShardsInflight.p.Store(r.Gauge(MetricPoolShardsInflight, "streamed-pool shards being scored right now"))
	SpanShardScore.hist.Store(r.Histogram(MetricPoolShardScoreSecs, "one shard's predict-and-reduce duration (seconds)", LatencyBuckets))
	modelOps := make(map[string]*Counter, len(modelCacheOpValues))
	for _, op := range modelCacheOpValues {
		modelOps[op] = r.Counter(Labeled(MetricModelCacheOps, "kind", op), "per-model scoring-cache maintenance operations")
	}
	ModelCacheOps.p.Store(&modelOps)

	MatDispatch.p.Store(r.Counter(MetricMatDispatch, "ParallelFor calls dispatched to the worker pool"))
	MatInline.p.Store(r.Counter(MetricMatInline, "ParallelFor calls run inline (serial fast path)"))
	MatWorkers.p.Store(r.Gauge(MetricMatWorkers, "worker-pool size at last dispatch"))

	FaultAttempts.p.Store(r.Counter(MetricFaultAttempts, "experiment attempts (including retries)"))
	FaultRetries.p.Store(r.Counter(MetricFaultRetries, "attempts that faulted and were retried"))
	FaultSuccess.p.Store(r.Counter(MetricFaultSuccesses, "experiments that ended in success"))
	FaultCensored.p.Store(r.Counter(MetricFaultCensored, "experiments that ended censored (oom/timeout kill)"))
	FaultFatal.p.Store(r.Counter(MetricFaultFatal, "experiments that ended fatally"))
	classes := make(map[string]*Counter, len(faultClassValues))
	for _, cl := range faultClassValues {
		classes[cl] = r.Counter(Labeled(MetricFaultByClass, "class", cl), "faults observed, by class")
	}
	FaultByClass.p.Store(&classes)
	FaultBackoff.p.Store(r.Histogram(MetricFaultBackoffSeconds, "simulated backoff waits (seconds)", BackoffBuckets))

	SimReferenceRuns.p.Store(r.Counter(MetricSimReferenceRuns, "physics references the sim lab's shared cache computed"))
	SimReferenceShared.p.Store(r.Counter(MetricSimReferenceShared, "reference lookups answered by an entry already cached or being computed"))
	SimEmulations.p.Store(r.Counter(MetricSimEmulations, "mesh emulations the sim lab computed"))
	SimEmulationsShared.p.Store(r.Counter(MetricSimEmulationsShared, "emulations answered from a cached reference's stored stats"))

	CheckpointWrites.p.Store(r.Counter(MetricCheckpointWrites, "checkpoints written"))
	CheckpointRestores.p.Store(r.Counter(MetricCheckpointRestores, "campaigns resumed from a checkpoint"))
	SpanCheckpointWrite.hist.Store(r.Histogram(MetricCheckpointWriteSeconds, "checkpoint write duration (seconds)", LatencyBuckets))
	SpanCheckpointRestore.hist.Store(r.Histogram(MetricCheckpointRestoreSeconds, "checkpoint restore duration (seconds)", LatencyBuckets))

	RemoteJobsDispatched.p.Store(r.Counter(MetricRemoteJobsDispatched, "jobs handed to remote workers (including re-dispatches)"))
	RemoteJobsCompleted.p.Store(r.Counter(MetricRemoteJobsCompleted, "jobs remote workers finished (success or reported fault)"))
	RemoteJobsStolen.p.Store(r.Counter(MetricRemoteJobsStolen, "journaled jobs re-dispatched after a worker loss or resume"))
	RemoteJobsLost.p.Store(r.Counter(MetricRemoteJobsLost, "in-flight jobs lost to a vanished worker"))
	RemoteWorkersLive.p.Store(r.Gauge(MetricRemoteWorkersLive, "remote workers currently connected"))
	RemoteHeartbeat.p.Store(r.Histogram(MetricRemoteHeartbeat, "gap between consecutive frames from a worker (seconds)", LatencyBuckets))

	ServeSubmitted.p.Store(r.Counter(MetricServeSubmitted, "campaign submissions accepted"))
	rejects := make(map[string]*Counter, len(serveRejectValues))
	for _, v := range serveRejectValues {
		rejects[v] = r.Counter(Labeled(MetricServeRejected, LabelReason, v), "campaign submissions rejected, by reason")
	}
	ServeRejected.p.Store(&rejects)
	states := make(map[string]*Counter, len(serveStateValues))
	for _, v := range serveStateValues {
		states[v] = r.Counter(Labeled(MetricServeFinished, LabelState, v), "campaigns finished, by terminal state")
	}
	ServeFinished.p.Store(&states)
	ServeResumed.p.Store(r.Counter(MetricServeResumed, "campaigns requeued on daemon restart"))
	ServeQueueDepth.p.Store(r.Gauge(MetricServeQueueDepth, "campaigns waiting in the scheduler queue"))
	ServeRunning.p.Store(r.Gauge(MetricServeRunning, "campaigns executing right now"))
	routes := make(map[string]*Histogram, len(serveRouteValues))
	for _, v := range serveRouteValues {
		routes[v] = r.Histogram(Labeled(MetricServeHTTPSeconds, LabelRoute, v), "HTTP request duration (seconds), by route", LatencyBuckets)
	}
	ServeHTTPSeconds.p.Store(&routes)
}

// unbindHandles reverts every handle to a no-op. Called under global.mu.
func unbindHandles() {
	for _, c := range []*CounterHandle{
		&LoopIterations, &CampaignViolations,
		&GPRebuilds, &GPExtends,
		&CacheHits, &CacheRebuilds, &CacheInvalidations, &CacheExtends,
		&PoolShardsScored, &PoolShardsPruned, &PoolCandidatesScored, &PoolCandidatesPruned,
		&MatDispatch, &MatInline,
		&FaultAttempts, &FaultRetries, &FaultSuccess, &FaultCensored, &FaultFatal,
		&SimReferenceRuns, &SimReferenceShared, &SimEmulations, &SimEmulationsShared,
		&CheckpointWrites, &CheckpointRestores,
		&RemoteJobsDispatched, &RemoteJobsCompleted, &RemoteJobsStolen, &RemoteJobsLost,
		&ServeSubmitted, &ServeResumed,
	} {
		c.p.Store(nil)
	}
	for _, g := range []*GaugeHandle{
		&CampaignCumCost, &CampaignCumRegret, &CampaignHeadroom,
		&PoolSize, &PoolStreamLive, &PoolShardsInflight, &GPTrainRows, &MatWorkers,
		&RemoteWorkersLive, &ServeQueueDepth, &ServeRunning, &FidelityLevels,
	} {
		g.p.Store(nil)
	}
	for _, h := range []*HistogramHandle{&JobCost, &JobMem, &FaultBackoff, &RemoteHeartbeat} {
		h.p.Store(nil)
	}
	for _, sp := range []*SpanHandle{
		&SpanFit, &SpanHyperopt, &SpanScore, &SpanSelect, &SpanRun, &SpanFeed,
		&SpanCheckpointWrite, &SpanCheckpointRestore, &SpanShardScore,
	} {
		sp.hist.Store(nil)
	}
	FaultByClass.p.Store(nil)
	ModelCacheOps.p.Store(nil)
	FidelitySelections.p.Store(nil)
	ServeRejected.p.Store(nil)
	ServeFinished.p.Store(nil)
	ServeHTTPSeconds.p.Store(nil)
}
