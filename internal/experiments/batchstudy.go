package experiments

import (
	"fmt"

	"alamr/internal/cluster"
	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/report"
	"alamr/internal/stats"
)

// BatchSizeRow summarizes one q value of the batch-mode study.
type BatchSizeRow struct {
	Q                int
	FinalCostRMSE    float64 // median across partitions
	FinalCumCost     float64
	CampaignMakespan float64 // seconds, via the queue model
	QueueWait        float64
}

// BatchSizeStudy quantifies the trade-off the paper's future work poses for
// batch-mode AL: larger selection batches are less greedy (the models are
// stale within a round) but the q jobs of each round run concurrently on the
// machine, shortening the campaign. Selection quality comes from
// RunBatchTrajectory; campaign wall-clock comes from replaying the selected
// jobs through the FIFO+backfill queue model, with each round's jobs
// submitted together once the previous round finished.
//
// The (q, partition) grid runs as one engine sweep: partitions are split up
// front (so the full grid is declared before anything executes) and the
// trajectories run concurrently with per-campaign isolation.
func BatchSizeStudy(opts Options, qs []int, queueNodes int) ([]BatchSizeRow, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if len(qs) == 0 {
		qs = []int{1, 2, 4, 8}
	}
	if queueNodes <= 0 {
		queueNodes = 64
	}
	nInit := scaleNInit(opts.Dataset, 50)

	var items []engine.SweepItem
	for _, q := range qs {
		for pi := 0; pi < opts.Partitions; pi++ {
			rng := stats.NewRand(stats.SplitSeed(opts.Seed+9, pi*100+q))
			part, err := dataset.Split(opts.Dataset, nInit, opts.NTest, rng)
			if err != nil {
				return nil, err
			}
			q, seed := q, stats.SplitSeed(opts.Seed+9, 7000+pi*100+q)
			items = append(items, engine.SweepItem{
				ID: fmt.Sprintf("batch/q=%d/part=%d", q, pi),
				Run: func(scope *engine.CampaignObs) (any, error) {
					return engine.RunReplayBatch(opts.Dataset, part, engine.LoopConfig{
						Policy:        engine.RandGoodness{},
						MaxIterations: opts.MaxIterations,
						HyperoptEvery: opts.HyperoptEvery,
						Seed:          seed,
						Campaign:      scope,
					}, q, engine.BatchConstantLiar)
				},
			})
		}
	}
	results, err := engine.Sweep(engine.SweepConfig{Workers: opts.Workers, Items: items})
	if err != nil {
		return nil, err
	}

	var rows []BatchSizeRow
	tb := &report.Table{Header: []string{"q", "final cost RMSE (median)", "final CC (median)", "campaign makespan (h)", "queue wait (h)"}}
	for qi, q := range qs {
		finalsR := make([]float64, 0, opts.Partitions)
		finalsC := make([]float64, 0, opts.Partitions)
		spans := make([]float64, 0, opts.Partitions)
		waits := make([]float64, 0, opts.Partitions)
		for pi := 0; pi < opts.Partitions; pi++ {
			tr := results[qi*opts.Partitions+pi].Value.(*engine.Trajectory)
			n := tr.Iterations()
			if n == 0 {
				continue
			}
			finalsR = append(finalsR, tr.CostRMSE[n-1])
			finalsC = append(finalsC, tr.CumCost[n-1])

			makespan, wait, err := campaignMakespan(opts.Dataset, tr, q, queueNodes)
			if err != nil {
				return nil, err
			}
			spans = append(spans, makespan)
			waits = append(waits, wait)
		}
		row := BatchSizeRow{
			Q:                q,
			FinalCostRMSE:    stats.Median(finalsR),
			FinalCumCost:     stats.Median(finalsC),
			CampaignMakespan: stats.Median(spans),
			QueueWait:        stats.Median(waits),
		}
		rows = append(rows, row)
		tb.Add(fmt.Sprintf("%d", q), row.FinalCostRMSE, row.FinalCumCost,
			row.CampaignMakespan/3600, row.QueueWait/3600)
	}
	fmt.Fprintln(opts.Out, "batch-mode AL study (future work §VI): selection quality vs campaign wall-clock")
	return rows, tb.Write(opts.Out)
}

// campaignMakespan replays a trajectory's selections as queue submissions:
// each round's q jobs are submitted when the previous round completes
// (sequential AL is the q=1 special case).
func campaignMakespan(ds *dataset.Dataset, tr *engine.Trajectory, q, queueNodes int) (makespan, wait float64, err error) {
	queue := cluster.Queue{TotalNodes: queueNodes}
	clock := 0.0
	var totalWait float64
	for start := 0; start < len(tr.Selected); start += q {
		end := start + q
		if end > len(tr.Selected) {
			end = len(tr.Selected)
		}
		jobs := make([]cluster.QueuedJob, 0, end-start)
		for _, idx := range tr.Selected[start:end] {
			j := ds.Jobs[idx]
			nodes := j.P
			if nodes > queueNodes {
				nodes = queueNodes
			}
			jobs = append(jobs, cluster.QueuedJob{Nodes: nodes, WallSec: j.WallSec})
		}
		s, err := queue.Schedule(jobs)
		if err != nil {
			return 0, 0, err
		}
		clock += s.Makespan
		totalWait += s.WaitSec
	}
	return clock, totalWait, nil
}
