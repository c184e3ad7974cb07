package obs

// Metric names. Every exported instrument in the process is declared here
// (and documented in DESIGN.md §Observability); TestMetricNamesUnique lints
// the list for duplicates so two subsystems cannot silently share a series.
//
// Naming follows Prometheus conventions: `alamr_` prefix, `_total` suffix
// for counters, base units in the name (`_seconds`, `_nh` node-hours,
// `_mb` megabytes). Labels are embedded in the full series name
// (`name{label="value"}`) and split back out by the exporter.
const (
	// AL loop / campaign.
	MetricLoopIterations     = "alamr_loop_iterations_total"
	MetricLoopPhaseSeconds   = "alamr_loop_phase_seconds" // label: phase
	MetricCampaignViolations = "alamr_campaign_violations_total"
	MetricCampaignCumCost    = "alamr_campaign_cum_cost_nh"
	MetricCampaignCumRegret  = "alamr_campaign_cum_regret_nh"
	MetricCampaignHeadroom   = "alamr_campaign_mem_headroom_mb"
	MetricPoolSize           = "alamr_pool_size"
	MetricJobCost            = "alamr_job_cost_nh"
	MetricJobMem             = "alamr_job_mem_mb"

	// Multi-fidelity campaigns: the ladder size of the running campaign and
	// the selection count per ladder rung (label: level, the ladder index
	// "0".."3" — the maxlevel grid bounds the ladder at four rungs).
	MetricFidelityLevels     = "alamr_fidelity_levels"
	MetricFidelitySelections = "alamr_fidelity_selections_total" // label: level

	// GP internals.
	MetricGPRebuilds  = "alamr_gp_rebuild_total"
	MetricGPExtends   = "alamr_gp_extend_total"
	MetricGPTrainRows = "alamr_gp_train_rows"

	// ScoringCache.
	MetricCacheHits          = "alamr_cache_hits_total"
	MetricCacheRebuilds      = "alamr_cache_rebuilds_total"
	MetricCacheInvalidations = "alamr_cache_invalidations_total"
	MetricCacheExtends       = "alamr_cache_extends_total"

	// Streamed candidate pool (engine.StreamState). Shard scoring is
	// parallel: the in-flight gauge tracks shards being scored at this
	// instant, the histogram times individual shard-scoring spans, and —
	// like the sweep series below — per-worker scored counts additionally
	// appear as dynamically-created `{worker="..."}` series of
	// MetricPoolWorkerShards (absent from AllMetricNames: worker indices
	// are only known at run time). The candidate counters partition the
	// live candidates each Select visits: predicted, or skipped by the
	// per-candidate prune bound.
	MetricPoolShardsScored     = "alamr_pool_shards_scored_total"
	MetricPoolShardsPruned     = "alamr_pool_shards_pruned_total"
	MetricPoolCandidatesScored = "alamr_pool_candidates_scored_total"
	MetricPoolCandidatesPruned = "alamr_pool_candidates_pruned_total"
	MetricPoolStreamLive       = "alamr_pool_stream_live"
	MetricPoolShardsInflight   = "alamr_pool_shards_inflight"
	MetricPoolShardScoreSecs   = "alamr_pool_shard_score_seconds"
	MetricPoolWorkerShards     = "alamr_pool_worker_shards_total" // label: worker

	// Per-model incremental scoring caches (sparse/treed analogues of
	// ScoringCache). One labeled series per (model, operation) pair.
	MetricModelCacheOps = "alamr_model_cache_ops_total" // label: kind

	// mat worker pool.
	MetricMatDispatch = "alamr_mat_dispatch_total"
	MetricMatInline   = "alamr_mat_inline_total"
	MetricMatWorkers  = "alamr_mat_workers"

	// Faults runtime.
	MetricFaultAttempts       = "alamr_faults_attempts_total"
	MetricFaultRetries        = "alamr_faults_retries_total"
	MetricFaultSuccesses      = "alamr_faults_successes_total"
	MetricFaultCensored       = "alamr_faults_censored_total"
	MetricFaultFatal          = "alamr_faults_fatal_total"
	MetricFaultByClass        = "alamr_faults_by_class_total" // label: class
	MetricFaultBackoffSeconds = "alamr_faults_backoff_seconds"

	// Sim lab reference cache (internal/online): references the
	// process-wide cache computed, and lookups it answered with an entry
	// already cached or being computed; emulations the sim lab computed,
	// and those its cached references answered with stored stats.
	MetricSimReferenceRuns    = "alamr_sim_reference_runs_total"
	MetricSimReferenceShared  = "alamr_sim_reference_shared_total"
	MetricSimEmulations       = "alamr_sim_emulations_total"
	MetricSimEmulationsShared = "alamr_sim_emulations_shared_total"

	// Checkpointing.
	MetricCheckpointWrites         = "alamr_checkpoint_writes_total"
	MetricCheckpointRestores       = "alamr_checkpoint_restores_total"
	MetricCheckpointWriteSeconds   = "alamr_checkpoint_write_seconds"
	MetricCheckpointRestoreSeconds = "alamr_checkpoint_restore_seconds"

	// Remote lab (internal/remotelab dispatcher). The aggregate series
	// below are static; per-worker breakdowns additionally appear as
	// dynamically-created `{worker="..."}` series (see the sweep note
	// below for why those are absent from AllMetricNames).
	MetricRemoteJobsDispatched = "alamr_remote_jobs_dispatched_total"
	MetricRemoteJobsCompleted  = "alamr_remote_jobs_completed_total"
	MetricRemoteJobsStolen     = "alamr_remote_jobs_stolen_total"
	MetricRemoteJobsLost       = "alamr_remote_jobs_lost_total"
	MetricRemoteWorkersLive    = "alamr_remote_workers_live"
	MetricRemoteHeartbeat      = "alamr_remote_heartbeat_seconds"

	// Serving daemon (internal/serve). Aggregate series for the scheduler
	// and HTTP front end; per-campaign progress additionally appears as the
	// dynamically-labeled sweep series below (the daemon attaches an
	// engine.CampaignObs scope per campaign).
	MetricServeSubmitted   = "alamr_serve_submitted_total"
	MetricServeRejected    = "alamr_serve_rejected_total" // label: reason
	MetricServeFinished    = "alamr_serve_finished_total" // label: state
	MetricServeResumed     = "alamr_serve_resumed_total"
	MetricServeQueueDepth  = "alamr_serve_queue_depth"
	MetricServeRunning     = "alamr_serve_running"
	MetricServeHTTPSeconds = "alamr_serve_http_seconds" // label: route

	// Per-campaign sweep series. These are labeled with the campaign id
	// (`{campaign="..."}`), whose values are only known at sweep time, so —
	// unlike every other name here — their labeled series are created
	// dynamically and are deliberately absent from AllMetricNames (the
	// bound-names lint runs against the statically declarable set).
	MetricSweepIterations = "alamr_sweep_campaign_iterations_total"
	MetricSweepViolations = "alamr_sweep_campaign_violations_total"
	MetricSweepCumCost    = "alamr_sweep_campaign_cum_cost_nh"
	MetricSweepCumRegret  = "alamr_sweep_campaign_cum_regret_nh"
)

// LabelCampaign is the label key of the per-campaign sweep series.
const LabelCampaign = "campaign"

// LabelWorker is the label key of the per-worker remote-lab series.
const LabelWorker = "worker"

// Label keys of the serving-daemon series.
const (
	LabelReason = "reason"
	LabelState  = "state"
	LabelRoute  = "route"
)

// Label values of MetricServeRejected: why a submission was turned away.
const (
	ServeRejectBackpressure = "backpressure"
	ServeRejectInvalid      = "invalid"
)

// Label values of MetricServeFinished: the terminal campaign states.
const (
	ServeStateDone      = "done"
	ServeStateFailed    = "failed"
	ServeStateCancelled = "cancelled"
)

// Label values of MetricServeHTTPSeconds: the daemon's route families.
const (
	ServeRouteSubmit = "submit"
	ServeRouteGet    = "get"
	ServeRouteStatus = "status"
	ServeRouteCancel = "cancel"
	ServeRouteList   = "list"
)

// Label values of MetricModelCacheOps: which model family's incremental
// scoring cache performed which maintenance operation.
const (
	ModelCacheSparseExtend  = "sparse-extend"
	ModelCacheSparseRebuild = "sparse-rebuild"
	ModelCacheTreedExtend   = "treed-extend"
	ModelCacheTreedRebuild  = "treed-rebuild"
)

// LabelLevel is the label key of the per-rung fidelity series.
const LabelLevel = "level"

// FidelityLevelValues enumerates the label values of
// MetricFidelitySelections: ladder indices, bounded by the maxlevel grid.
var FidelityLevelValues = []string{"0", "1", "2", "3"}

// Phase labels used with MetricLoopPhaseSeconds and trace span names.
const (
	PhaseFit      = "fit"
	PhaseHyperopt = "hyperopt"
	PhaseScore    = "score"
	PhaseSelect   = "select"
	PhaseRun      = "run"
	PhaseFeed     = "feed"
)

// AllMetricNames lists every metric series this process can emit, with
// labeled series spelled out per label value. The duplicate lint and the
// DESIGN.md coverage test iterate over it.
var AllMetricNames = []string{
	MetricLoopIterations,
	Labeled(MetricLoopPhaseSeconds, "phase", PhaseFit),
	Labeled(MetricLoopPhaseSeconds, "phase", PhaseHyperopt),
	Labeled(MetricLoopPhaseSeconds, "phase", PhaseScore),
	Labeled(MetricLoopPhaseSeconds, "phase", PhaseSelect),
	Labeled(MetricLoopPhaseSeconds, "phase", PhaseRun),
	Labeled(MetricLoopPhaseSeconds, "phase", PhaseFeed),
	MetricCampaignViolations,
	MetricCampaignCumCost,
	MetricCampaignCumRegret,
	MetricCampaignHeadroom,
	MetricPoolSize,
	MetricJobCost,
	MetricJobMem,
	MetricFidelityLevels,
	Labeled(MetricFidelitySelections, LabelLevel, "0"),
	Labeled(MetricFidelitySelections, LabelLevel, "1"),
	Labeled(MetricFidelitySelections, LabelLevel, "2"),
	Labeled(MetricFidelitySelections, LabelLevel, "3"),
	MetricGPRebuilds,
	MetricGPExtends,
	MetricGPTrainRows,
	MetricCacheHits,
	MetricCacheRebuilds,
	MetricCacheInvalidations,
	MetricCacheExtends,
	MetricPoolShardsScored,
	MetricPoolShardsPruned,
	MetricPoolCandidatesScored,
	MetricPoolCandidatesPruned,
	MetricPoolStreamLive,
	MetricPoolShardsInflight,
	MetricPoolShardScoreSecs,
	Labeled(MetricModelCacheOps, "kind", ModelCacheSparseExtend),
	Labeled(MetricModelCacheOps, "kind", ModelCacheSparseRebuild),
	Labeled(MetricModelCacheOps, "kind", ModelCacheTreedExtend),
	Labeled(MetricModelCacheOps, "kind", ModelCacheTreedRebuild),
	MetricMatDispatch,
	MetricMatInline,
	MetricMatWorkers,
	MetricFaultAttempts,
	MetricFaultRetries,
	MetricFaultSuccesses,
	MetricFaultCensored,
	MetricFaultFatal,
	Labeled(MetricFaultByClass, "class", "oom"),
	Labeled(MetricFaultByClass, "class", "timeout"),
	Labeled(MetricFaultByClass, "class", "transient"),
	Labeled(MetricFaultByClass, "class", "corrupt"),
	Labeled(MetricFaultByClass, "class", "unknown"),
	MetricFaultBackoffSeconds,
	MetricSimReferenceRuns,
	MetricSimReferenceShared,
	MetricSimEmulations,
	MetricSimEmulationsShared,
	MetricCheckpointWrites,
	MetricCheckpointRestores,
	MetricCheckpointWriteSeconds,
	MetricCheckpointRestoreSeconds,
	MetricRemoteJobsDispatched,
	MetricRemoteJobsCompleted,
	MetricRemoteJobsStolen,
	MetricRemoteJobsLost,
	MetricRemoteWorkersLive,
	MetricRemoteHeartbeat,
	MetricServeSubmitted,
	Labeled(MetricServeRejected, LabelReason, ServeRejectBackpressure),
	Labeled(MetricServeRejected, LabelReason, ServeRejectInvalid),
	Labeled(MetricServeFinished, LabelState, ServeStateDone),
	Labeled(MetricServeFinished, LabelState, ServeStateFailed),
	Labeled(MetricServeFinished, LabelState, ServeStateCancelled),
	MetricServeResumed,
	MetricServeQueueDepth,
	MetricServeRunning,
	Labeled(MetricServeHTTPSeconds, LabelRoute, ServeRouteSubmit),
	Labeled(MetricServeHTTPSeconds, LabelRoute, ServeRouteGet),
	Labeled(MetricServeHTTPSeconds, LabelRoute, ServeRouteStatus),
	Labeled(MetricServeHTTPSeconds, LabelRoute, ServeRouteCancel),
	Labeled(MetricServeHTTPSeconds, LabelRoute, ServeRouteList),
}

// Labeled builds the full series name for a single-label metric:
// Labeled("alamr_faults_by_class_total", "class", "oom") →
// `alamr_faults_by_class_total{class="oom"}`.
func Labeled(name, label, value string) string {
	return name + `{` + label + `="` + value + `"}`
}
