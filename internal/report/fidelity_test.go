package report

import (
	"strings"
	"testing"

	"alamr/internal/engine"
)

func TestFidelityTable(t *testing.T) {
	ladder := []int{3, 4, 6}
	levels := []int{0, 0, 1, 2, 0, 2}
	costs := []float64{1, 1, 4, 16, 1, 16}
	viol := []bool{false, false, true, false, false, true}
	tbl, err := FidelityTable(ladder, levels, costs, viol)
	if err != nil {
		t.Fatal(err)
	}
	// 3 rungs + total row.
	if len(tbl.Rows) != 4 {
		t.Fatalf("table has %d rows, want 4", len(tbl.Rows))
	}
	// Level 0: 3 selections, 3 nh, no regret.
	if got := tbl.Rows[0]; got[2] != "3" || got[3] != "3" || got[5] != "0" {
		t.Fatalf("level-0 row = %v", got)
	}
	// Level 2: 2 selections, 32 nh, 16 nh regret.
	if got := tbl.Rows[2]; got[2] != "2" || got[3] != "32" || got[5] != "16" {
		t.Fatalf("level-2 row = %v", got)
	}
	// Total: 6 selections, 39 nh, 20 nh regret.
	if got := tbl.Rows[3]; got[2] != "6" || got[3] != "39" || got[5] != "20" {
		t.Fatalf("total row = %v", got)
	}
	out := tbl.String()
	if !strings.Contains(out, "cc (nh)") || !strings.Contains(out, "cr (nh)") {
		t.Fatalf("rendered table lacks CC/CR columns:\n%s", out)
	}
}

func TestFidelityTableErrors(t *testing.T) {
	if _, err := FidelityTable([]int{3, 4}, []int{0}, nil, nil); err == nil {
		t.Fatal("level/cost length mismatch accepted")
	}
	if _, err := FidelityTable([]int{3, 4}, []int{2}, []float64{1}, nil); err == nil {
		t.Fatal("out-of-ladder level accepted")
	}
	if _, err := FidelityTable([]int{3, 4}, []int{0}, []float64{1}, []bool{true, false}); err == nil {
		t.Fatal("violation length mismatch accepted")
	}
}

func TestFidelityTableWrappers(t *testing.T) {
	ladder := []int{3, 6}
	tr := &engine.Trajectory{
		SelectedLevel: []int{0, 1},
		SelectedCost:  []float64{1, 8},
		Violation:     []bool{false, true},
	}
	if _, err := FidelityTrajectoryTable(ladder, tr); err != nil {
		t.Fatal(err)
	}
}
