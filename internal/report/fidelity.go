package report

import (
	"fmt"

	"alamr/internal/engine"
)

// FidelityTable renders the per-rung breakdown of a multi-fidelity campaign:
// how many selections each ladder level received, the node-hours spent there
// (that rung's share of CC), the spend fraction, and the node-hours wasted
// on limit-violating picks at that rung (its share of CR). The final row
// totals the campaign. ladder holds the rungs' MaxLevel values in ladder
// order; levels/costs/violations are the per-selection records (violations
// may be nil when the campaign ran without a memory limit).
func FidelityTable(ladder []int, levels []int, costs []float64, violations []bool) (*Table, error) {
	if len(levels) != len(costs) {
		return nil, fmt.Errorf("report: %d selection levels for %d costs", len(levels), len(costs))
	}
	if violations != nil && len(violations) != len(levels) {
		return nil, fmt.Errorf("report: %d violation flags for %d selections", len(violations), len(levels))
	}
	sel := make([]int, len(ladder))
	cc := make([]float64, len(ladder))
	cr := make([]float64, len(ladder))
	var totalCC, totalCR float64
	totalSel := 0
	for i, l := range levels {
		if l < 0 || l >= len(ladder) {
			return nil, fmt.Errorf("report: selection %d has ladder level %d, ladder holds %d rungs", i, l, len(ladder))
		}
		sel[l]++
		cc[l] += costs[i]
		totalSel++
		totalCC += costs[i]
		if violations != nil && violations[i] {
			cr[l] += costs[i]
			totalCR += costs[i]
		}
	}
	t := &Table{Header: []string{"level", "maxlevel", "selections", "cc (nh)", "cc share", "cr (nh)"}}
	for l, ml := range ladder {
		share := 0.0
		if totalCC > 0 {
			share = cc[l] / totalCC
		}
		t.Add(l, ml, sel[l], cc[l], share, cr[l])
	}
	t.Add("total", "", totalSel, totalCC, 1.0, totalCR)
	return t, nil
}

// FidelityTrajectoryTable is FidelityTable over a replay trajectory.
func FidelityTrajectoryTable(ladder []int, tr *engine.Trajectory) (*Table, error) {
	return FidelityTable(ladder, tr.SelectedLevel, tr.SelectedCost, tr.Violation)
}
