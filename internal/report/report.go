// Package report renders evaluation results as text tables, ASCII charts,
// and CSV series — the regeneration targets for the paper's tables and
// figures in a terminal-first workflow.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"alamr/internal/stats"
)

// Table renders a simple aligned text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row; values are formatted with %v unless already strings.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatG(v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatG(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e5 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// Write renders the table to w.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := len(widths)*2 - 2
	for _, w2 := range widths {
		total += w2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Write(&b)
	return b.String()
}

// ASCIIViolin renders a horizontal text violin: a density profile with
// min/quartile/median markers, the terminal analogue of the paper's Fig 2.
func ASCIIViolin(name string, v stats.ViolinSummary, width int) string {
	if width < 16 {
		width = 16
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (n=%d)\n", name, v.N)
	maxD := 0.0
	for _, d := range v.Density {
		if d > maxD {
			maxD = d
		}
	}
	if maxD == 0 {
		maxD = 1
	}
	for i := len(v.Grid) - 1; i >= 0; i-- {
		bar := int(v.Density[i] / maxD * float64(width))
		marker := ' '
		val := v.Grid[i]
		step := (v.Max - v.Min) / float64(len(v.Grid)-1)
		switch {
		case math.Abs(val-v.Median) <= step/2:
			marker = 'M'
		case math.Abs(val-v.Q1) <= step/2 || math.Abs(val-v.Q3) <= step/2:
			marker = 'Q'
		}
		fmt.Fprintf(&b, "%10.4g %c|%s\n", val, marker, strings.Repeat("#", bar))
	}
	fmt.Fprintf(&b, "  min=%.4g Q1=%.4g med=%.4g mean=%.4g Q3=%.4g max=%.4g\n",
		v.Min, v.Q1, v.Median, v.Mean, v.Q3, v.Max)
	return b.String()
}

// ASCIIChart plots one or more named series as a simple scatter chart with
// shared axes. Series may have different lengths; x is the index.
func ASCIIChart(title string, names []string, series [][]float64, w, h int) string {
	if len(names) != len(series) {
		panic("report: names/series mismatch")
	}
	if w < 10 {
		w = 60
	}
	if h < 4 {
		h = 16
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	maxLen := 0
	for _, s := range series {
		for _, v := range s {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	if maxLen == 0 || math.IsInf(lo, 1) {
		return title + " (no data)\n"
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, h)
	for j := range grid {
		grid[j] = []byte(strings.Repeat(" ", w))
	}
	glyphs := "abcdefghijklmnop"
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			x := 0
			if maxLen > 1 {
				x = i * (w - 1) / (maxLen - 1)
			}
			y := int((v - lo) / (hi - lo) * float64(h-1))
			grid[h-1-y][x] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for j, row := range grid {
		label := ""
		if j == 0 {
			label = formatG(hi)
		} else if j == h-1 {
			label = formatG(lo)
		}
		fmt.Fprintf(&b, "%10s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", w))
	for i, n := range names {
		fmt.Fprintf(&b, "  %c = %s\n", glyphs[i%len(glyphs)], n)
	}
	return b.String()
}

// WriteCSVSeries emits named series as CSV columns (ragged series leave
// trailing cells empty), for plotting with external tools.
func WriteCSVSeries(w io.Writer, names []string, series [][]float64) error {
	if len(names) != len(series) {
		return fmt.Errorf("report: %d names for %d series", len(names), len(series))
	}
	if _, err := fmt.Fprintf(w, "iteration,%s\n", strings.Join(names, ",")); err != nil {
		return err
	}
	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	for i := 0; i < maxLen; i++ {
		cells := make([]string, 0, len(series)+1)
		cells = append(cells, fmt.Sprintf("%d", i))
		for _, s := range series {
			if i < len(s) {
				cells = append(cells, fmt.Sprintf("%g", s[i]))
			} else {
				cells = append(cells, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}
