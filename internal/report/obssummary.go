package report

import (
	"fmt"
	"sort"
	"strings"

	"alamr/internal/obs"
)

// streamPoolSeries reports whether a series belongs to the streamed-pool
// group (shard and candidate scored/pruned counters, the in-flight and
// live gauges, the shard-latency histogram, and the per-lane labeled
// counters). The group renders as a unit: nothing when streaming never
// ran, and both scored/pruned partitions — zero pruned counts included —
// when it did, so the reconcile invariants (scored + pruned = shards
// visited, and = live candidates visited) are always readable and a
// campaign that never streamed never shows a misleading pruning block.
func streamPoolSeries(name string) bool {
	return strings.HasPrefix(name, "alamr_pool_shards_") ||
		strings.HasPrefix(name, "alamr_pool_candidates_") ||
		strings.HasPrefix(name, obs.MetricPoolWorkerShards) ||
		name == obs.MetricPoolStreamLive ||
		name == obs.MetricPoolShardScoreSecs
}

// ObsSummary renders an end-of-campaign digest of the observability
// registry: every non-zero counter and gauge, plus count/mean for every
// histogram with observations. It is the terminal-first companion to the
// /metrics endpoint — the same registry a Prometheus scrape would see,
// condensed into one table after the run. Returns nil when r is nil (the
// observability-disabled case), so callers can print it unconditionally:
//
//	if t := report.ObsSummary(obs.Default()); t != nil {
//	    t.Write(os.Stdout)
//	}
func ObsSummary(r *obs.Registry) *Table {
	if r == nil {
		return nil
	}
	s := r.TakeSnapshot()
	t := &Table{Header: []string{"metric", "value"}}
	streamed := s.Counters[obs.MetricPoolShardsScored] > 0

	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if streamPoolSeries(name) && !streamed {
			continue
		}
		v := s.Counters[name]
		pruneRow := name == obs.MetricPoolShardsPruned || name == obs.MetricPoolCandidatesPruned
		if v != 0 || (streamed && pruneRow) {
			t.Add(name, v)
		}
	}

	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if streamPoolSeries(name) && !streamed {
			continue
		}
		if v := s.Gauges[name]; v != 0 {
			t.Add(name, v)
		}
	}

	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if streamPoolSeries(name) && !streamed {
			continue
		}
		h := s.Histograms[name]
		if h.Count == 0 {
			continue
		}
		t.Add(name, fmt.Sprintf("n=%d mean=%s", h.Count, formatG(h.Sum/float64(h.Count))))
	}
	return t
}
