package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"alamr/internal/mat"
	"alamr/internal/obs"
)

var nan = math.NaN()

// metricDef is one metric the result line carries. BENCHMARK.json lists
// the same names, units and directions (TestCatalogMatchesBenchmarkJSON).
type metricDef struct{ name, unit, better string }

// catalogEndToEnd is what an untraced run reports: what a user of the
// program sees. Each is non-zero on every workload and steady across seeds;
// the learner-quality figures (cost_rmse_final, cost_mape, cum_cost_nh,
// cum_regret_nh), the kernel's peak RSS and error_rate are in the report
// line only (NOTES.md says why).
var catalogEndToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"selections_per_s", "1/s", "higher"},
	{"campaign_s.p50", "s", "lower"},
	{"rss_p95_mb", "MB", "lower"},
}

// catalogPerLayer is what a traced run reports: busy seconds summed over
// concurrent campaigns, work counts, and useful-outcome ratios per layer.
// A layer a workload does not exercise reads 0.
var catalogPerLayer = []metricDef{
	{"engine.score_s", "s", "lower"},
	{"engine.select_s", "s", "lower"},
	{"engine.selections", "count", "higher"},
	{"engine.loop_other_s", "s", "lower"},
	{"engine.shards_scored", "count", "lower"},
	{"engine.shards_pruned", "count", "higher"},
	{"engine.prune_ratio", "ratio", "higher"},
	{"engine.shard_busy_s", "s", "lower"},
	{"engine.lane_util", "ratio", "higher"},
	{"gp.hyperopt_s", "s", "lower"},
	{"gp.hyperopt_n", "count", "lower"},
	{"gp.fit_s", "s", "lower"},
	{"gp.feed_s", "s", "lower"},
	{"gp.feed_n", "count", "lower"},
	{"gp.chol_rebuilds", "count", "lower"},
	{"gp.chol_extends", "count", "lower"},
	{"gp.cache_hits", "count", "higher"},
	{"gp.cache_rebuilds", "count", "lower"},
	{"gp.cache_extends", "count", "lower"},
	{"gp.cache_invalidations", "count", "lower"},
	{"mat.dispatched", "count", "lower"},
	{"mat.inline", "count", "lower"},
	{"mat.dispatch_ratio", "ratio", "lower"},
	{"online.run_s", "s", "lower"},
	{"online.run_n", "count", "higher"},
	{"online.checkpoint_write_s", "s", "lower"},
	{"online.checkpoint_writes", "count", "lower"},
	{"online.checkpoint_bytes", "bytes", "lower"},
	{"faults.attempts", "count", "lower"},
	{"faults.retries", "count", "lower"},
	{"serve.queue_wait_s.p50", "s", "lower"},
	{"serve.submit_ms.p50", "ms", "lower"},
	{"serve.http_s", "s", "lower"},
	{"serve.http_requests", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.store_bytes", "bytes", "lower"},
	{"dataset.load_s", "s", "lower"},
	{"dataset.gen_s", "s", "lower"},
	{"process.alloc_mb_per_sel", "MB", "lower"},
	{"process.gc_cycles", "count", "lower"},
	{"process.trace_overhead", "ratio", "lower"},
}

// sample is one reported figure with its unit and sample count.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metrics maps metric names to their figures.
type metrics map[string]sample

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = sample{Value: v, Unit: unit, N: n}
}

// metric is one entry of the result line's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record printed before the result line.
type report struct {
	Provenance provenance `json:"provenance"`
	Metrics    metrics    `json:"metrics"`
	// Shares are layer busy seconds over Σ campaign wall seconds (traced).
	Shares map[string]float64 `json:"shares,omitempty"`
	// Samples are the raw samples behind the untraced phase's medians:
	// set-up times, per-unit selection rates and campaign wall times.
	Samples map[string][]float64 `json:"samples"`
}

// values selects the catalog's metrics for the result line; a missing or
// non-finite one is a bug in the benchmark, reported as an error.
func (m metrics) values(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		s, ok := m[d.name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return nil, fmt.Errorf("metric %s missing or not finite (%v)", d.name, s.Value)
		}
		out[d.name] = metric{Value: s.Value, Unit: d.unit}
	}
	return out, nil
}

// percentiles is the ladder the tail percentile is picked from.
var percentiles = []float64{50, 90, 99, 99.9}

// reportedPercentiles applies the percentile rule to n samples: the median
// alone below 20 samples, otherwise the median plus the highest percentile
// of the ladder that leaves at least ten samples beyond it.
func reportedPercentiles(n int) []float64 {
	if n < 20 {
		return []float64{50}
	}
	best := 50.0
	for _, p := range percentiles {
		if n-int(math.Ceil(float64(n)*p/100)) >= 10 {
			best = p
		}
	}
	if best == 50 {
		return []float64{50}
	}
	return []float64{50, best}
}

// percentileName renders a percentile suffix: 50 → "p50", 99.9 → "p99.9".
func percentileName(p float64) string {
	return "p" + strconv.FormatFloat(p, 'f', -1, 64)
}

// setPercentiles reports xs at the percentiles the rule allows, as
// <base>.p50 and, with enough samples, <base>.p<tail>. Values are scaled
// (e.g. seconds to milliseconds) before reporting.
func (m metrics) setPercentiles(base string, xs []float64, scale float64, unit string) {
	for _, p := range reportedPercentiles(len(xs)) {
		v := 0.0
		if len(xs) > 0 {
			v = quantile(xs, p/100) * scale
		}
		m.set(base+"."+percentileName(p), v, unit, len(xs))
	}
}

// endToEnd derives the user-visible metrics of an untraced phase.
func endToEnd(setups []float64, p phase) metrics {
	m := metrics{}
	m.set("setup_s", median(setups), "s", len(setups))
	sel := p.selections()
	m.set("selections_per_s", float64(sel)/p.wall, "1/s", sel)
	m.setPercentiles("campaign_s", p.walls(), 1, "s")
	m.set("rss_p95_mb", quantile(p.rssMB, 0.95), "MB", len(p.rssMB))
	m.set("peak_rss_mb", peakRSSMB(), "MB", 1)

	q, n := meanQuality(p.campaigns)
	m.set("cost_rmse_final", q.costRMSE, "nh", n)
	m.set("cum_cost_nh", q.cumCost, "nh", n)
	m.set("cum_regret_nh", q.cumRegret, "nh", n)
	if !math.IsNaN(q.mape) {
		m.set("cost_mape", q.mape, "ratio", n)
	}
	return m
}

// meanQuality averages the quality figures over distinct campaign keys
// (repetitions are identical by the gate) and returns the key count.
func meanQuality(cs []campaign) (quality, int) {
	seen := map[string]bool{}
	var total quality
	for _, c := range cs {
		if seen[c.key] {
			continue
		}
		seen[c.key] = true
		total.costRMSE += c.quality.costRMSE
		total.cumCost += c.quality.cumCost
		total.cumRegret += c.quality.cumRegret
		total.mape += c.quality.mape
	}
	n := float64(len(seen))
	return quality{total.costRMSE / n, total.cumCost / n, total.cumRegret / n, total.mape / n}, len(seen)
}

// phaseHist returns the loop-phase histogram of one phase label.
func phaseHist(snap obs.Snapshot, ph string) obs.HistogramSnapshot {
	return snap.Histograms[obs.Labeled(obs.MetricLoopPhaseSeconds, "phase", ph)]
}

// loopPhases are the engine loop's timed phases, the children of a
// campaign span.
var loopPhases = []string{obs.PhaseFit, obs.PhaseHyperopt, obs.PhaseScore, obs.PhaseSelect, obs.PhaseRun, obs.PhaseFeed}

// selfTime is a span's own time: the parent spans' summed durations minus
// their children's summed durations. Concurrent campaigns' program spans
// carry no campaign id, so the fold works on sums over every campaign, and
// overlapping parents each count their own duration, never the wall-clock
// union of the overlap.
func selfTime(parents []float64, children ...float64) float64 {
	return sum(parents) - sum(children)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// layerMetrics folds the traced phase's registry snapshot with the
// benchmark's own campaign spans into the per-layer breakdown. Every
// catalog name is set, to 0 where the workload does not exercise a layer;
// the workload's own figures (store, checkpoint and dataset sizes and
// times) are added by workload.layers.
func layerMetrics(snap obs.Snapshot, traced, untraced phase) metrics {
	m := metrics{}
	for _, d := range catalogPerLayer {
		m.set(d.name, 0, d.unit, 0)
	}
	counter := func(name string) float64 { return float64(snap.Counters[name]) }
	setHist := func(sName, nName string, h obs.HistogramSnapshot) {
		m.set(sName, h.Sum, "s", int(h.Count))
		if nName != "" {
			m.set(nName, float64(h.Count), "count", int(h.Count))
		}
	}

	score := phaseHist(snap, obs.PhaseScore)
	setHist("engine.score_s", "", score)
	setHist("engine.select_s", "", phaseHist(snap, obs.PhaseSelect))
	m.set("engine.selections", counter(obs.MetricLoopIterations), "count", 1)

	// The benchmark's spans: each campaign call, with the serve queue wait
	// as its first child; the loop phases are the other children.
	var walls, waits []float64
	for _, c := range traced.campaigns {
		walls = append(walls, c.wall)
		if c.queueWait >= 0 {
			waits = append(waits, c.queueWait)
		}
	}
	children := []float64{sum(waits)}
	for _, ph := range loopPhases {
		children = append(children, phaseHist(snap, ph).Sum)
	}
	m.set("engine.loop_other_s", selfTime(walls, children...), "s", len(walls))

	scored, pruned := counter(obs.MetricPoolShardsScored), counter(obs.MetricPoolShardsPruned)
	m.set("engine.shards_scored", scored, "count", 1)
	m.set("engine.shards_pruned", pruned, "count", 1)
	if scored+pruned > 0 {
		m.set("engine.prune_ratio", pruned/(scored+pruned), "ratio", int(scored+pruned))
	}
	shard := snap.Histograms[obs.MetricPoolShardScoreSecs]
	setHist("engine.shard_busy_s", "", shard)
	if lanes := mat.Workers(); score.Sum > 0 && shard.Sum > 0 {
		m.set("engine.lane_util", shard.Sum/(score.Sum*float64(lanes)), "ratio", lanes)
	}

	setHist("gp.hyperopt_s", "gp.hyperopt_n", phaseHist(snap, obs.PhaseHyperopt))
	setHist("gp.fit_s", "", phaseHist(snap, obs.PhaseFit))
	setHist("gp.feed_s", "gp.feed_n", phaseHist(snap, obs.PhaseFeed))
	m.set("gp.chol_rebuilds", counter(obs.MetricGPRebuilds), "count", 1)
	m.set("gp.chol_extends", counter(obs.MetricGPExtends), "count", 1)
	modelOps := func(suffix string) float64 {
		s := 0.0
		for _, kind := range []string{obs.ModelCacheSparseExtend, obs.ModelCacheSparseRebuild, obs.ModelCacheTreedExtend, obs.ModelCacheTreedRebuild} {
			if strings.HasSuffix(kind, suffix) {
				s += counter(obs.Labeled(obs.MetricModelCacheOps, "kind", kind))
			}
		}
		return s
	}
	m.set("gp.cache_hits", counter(obs.MetricCacheHits), "count", 1)
	m.set("gp.cache_rebuilds", counter(obs.MetricCacheRebuilds)+modelOps("-rebuild"), "count", 1)
	m.set("gp.cache_extends", counter(obs.MetricCacheExtends)+modelOps("-extend"), "count", 1)
	m.set("gp.cache_invalidations", counter(obs.MetricCacheInvalidations), "count", 1)

	dispatched, inline := counter(obs.MetricMatDispatch), counter(obs.MetricMatInline)
	m.set("mat.dispatched", dispatched, "count", 1)
	m.set("mat.inline", inline, "count", 1)
	if dispatched+inline > 0 {
		m.set("mat.dispatch_ratio", dispatched/(dispatched+inline), "ratio", int(dispatched+inline))
	}

	setHist("online.run_s", "online.run_n", phaseHist(snap, obs.PhaseRun))
	setHist("online.checkpoint_write_s", "", snap.Histograms[obs.MetricCheckpointWriteSeconds])
	m.set("online.checkpoint_writes", counter(obs.MetricCheckpointWrites), "count", 1)
	m.set("faults.attempts", counter(obs.MetricFaultAttempts), "count", 1)
	m.set("faults.retries", counter(obs.MetricFaultRetries), "count", 1)

	// Serve: the long-poll status route is excluded from busy time, since a
	// held request is waiting, not serving; it is counted as a request.
	var httpS, httpN, rejected float64
	for name, h := range snap.Histograms {
		if !strings.HasPrefix(name, obs.MetricServeHTTPSeconds+"{") {
			continue
		}
		httpN += float64(h.Count)
		if name != obs.Labeled(obs.MetricServeHTTPSeconds, obs.LabelRoute, obs.ServeRouteStatus) {
			httpS += h.Sum
		}
	}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, obs.MetricServeRejected+"{") {
			rejected += float64(v)
		}
	}
	m.set("serve.http_s", httpS, "s", int(httpN))
	m.set("serve.http_requests", httpN, "count", 1)
	m.set("serve.rejected", rejected, "count", 1)
	var submits []float64
	for _, c := range traced.campaigns {
		if c.submit > 0 {
			submits = append(submits, c.submit)
		}
	}
	if len(submits) > 0 {
		m.setPercentiles("serve.submit_ms", submits, 1000, "ms")
	}
	if len(waits) > 0 {
		m.setPercentiles("serve.queue_wait_s", waits, 1, "s")
	}

	if sel := untraced.selections(); sel > 0 {
		m.set("process.alloc_mb_per_sel", untraced.allocMB/float64(sel), "MB", sel)
	}
	m.set("process.gc_cycles", float64(untraced.gcCycles), "count", 1)
	plain := float64(untraced.selections()) / untraced.wall
	inst := float64(traced.selections()) / traced.wall
	m.set("process.trace_overhead", plain/inst-1, "ratio", 2)
	return m
}

// shareOf names the busy-time layers whose share of Σ campaign wall the
// report lists.
var shareOf = []string{
	"engine.score_s", "engine.select_s", "engine.loop_other_s", "engine.shard_busy_s",
	"gp.hyperopt_s", "gp.fit_s", "gp.feed_s",
	"online.run_s", "online.checkpoint_write_s",
}

// shares divides each busy-time layer by Σ campaign wall seconds of the
// traced phase; serve queue wait is listed as its own share.
func shares(m metrics, traced phase) map[string]float64 {
	var wall, wait float64
	for _, c := range traced.campaigns {
		wall += c.wall
		if c.queueWait > 0 {
			wait += c.queueWait
		}
	}
	out := map[string]float64{}
	if wall <= 0 {
		return out
	}
	for _, name := range shareOf {
		out[name] = m[name].Value / wall
	}
	if wait > 0 {
		out["serve.queue_wait"] = wait / wall
	}
	return out
}

// rssEvery is the resident-set sampling period.
const rssEvery = 10 * time.Millisecond

// rssSampler samples the process's resident set every rssEvery until
// stopped.
type rssSampler struct {
	done    chan struct{}
	wg      sync.WaitGroup
	samples []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mb, err := residentMB(); err == nil {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.done:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends sampling, waits for the sampler to exit, and returns the
// samples in MB.
func (s *rssSampler) stop() []float64 {
	close(s.done)
	s.wg.Wait()
	return s.samples
}

// residentMB reads the process's resident set size.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm: %q", data)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// peakRSSMB is the kernel's record of the process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nan
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
