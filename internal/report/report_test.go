package report

import (
	"bytes"
	"strings"
	"testing"

	"alamr/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.Add("alpha", 1.5)
	tb.Add("a-much-longer-name", 123456.0)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d want 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(out, "1.235e+05") {
		t.Fatalf("large value formatting: %q", out)
	}
}

func TestTableAddMixedTypes(t *testing.T) {
	tb := &Table{Header: []string{"a", "b", "c"}}
	tb.Add("s", 42, 0.5)
	if tb.Rows[0][1] != "42" || tb.Rows[0][2] != "0.5" {
		t.Fatalf("row = %v", tb.Rows[0])
	}
}

func TestFormatG(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.5",
		12345.6: "1.235e+04",
	}
	_ = cases
	if formatG(0) != "0" {
		t.Fatal("zero")
	}
	if got := formatG(0.0001); !strings.Contains(got, "e-") {
		t.Fatalf("tiny value = %q", got)
	}
}

func TestASCIIViolin(t *testing.T) {
	x := []float64{1, 2, 2, 3, 3, 3, 4, 4, 5, 10}
	v := stats.Violin(x, 16)
	out := ASCIIViolin("cost", v, 30)
	if !strings.Contains(out, "cost") || !strings.Contains(out, "med=") {
		t.Fatalf("violin output missing pieces:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatal("violin has no density bars")
	}
	// Tiny width is clamped, not broken.
	out2 := ASCIIViolin("x", v, 1)
	if len(out2) == 0 {
		t.Fatal("empty output")
	}
}

func TestASCIIChart(t *testing.T) {
	out := ASCIIChart("rmse", []string{"a", "b"},
		[][]float64{{3, 2, 1}, {4, 3, 2, 1}}, 40, 10)
	if !strings.Contains(out, "rmse") || !strings.Contains(out, "a = a") {
		t.Fatalf("chart output:\n%s", out)
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Fatal("series glyphs missing")
	}
}

func TestASCIIChartEmpty(t *testing.T) {
	out := ASCIIChart("none", []string{"a"}, [][]float64{{}}, 10, 5)
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty chart: %q", out)
	}
}

func TestASCIIChartMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ASCIIChart("x", []string{"a"}, nil, 10, 5)
}

func TestWriteCSVSeries(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSVSeries(&buf, []string{"a", "b"}, [][]float64{{1, 2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "iteration,a,b\n0,1,3\n1,2,\n"
	if got != want {
		t.Fatalf("CSV = %q want %q", got, want)
	}
	if err := WriteCSVSeries(&buf, []string{"a"}, nil); err == nil {
		t.Fatal("mismatch accepted")
	}
}
