package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"mobileqoe/internal/stats"
	"mobileqoe/internal/trace"
)

// MergeTrials combines the per-trial tables of one experiment into a single
// table. The merge is purely positional and therefore deterministic: it
// depends only on the tables' contents, never on the order trials finished.
//
// Column treatment, per source column:
//   - values identical across every trial (labels, x-axis values,
//     trial-invariant results): kept as a single column, unchanged;
//   - numeric in every trial (leading float, an optional ±std or % suffix):
//     replaced by three columns — mean, p50, and the 95% confidence-interval
//     half-width of the across-trial values (stats.Sample.CI95);
//   - anything else: one column holding the distinct values joined in trial
//     order with "|".
//
// A single-trial slice is returned as-is, so Trials: 1 output is identical
// to a direct registry run.
func MergeTrials(trials []*Table) *Table {
	if len(trials) == 0 {
		return nil
	}
	if len(trials) == 1 {
		return trials[0]
	}
	first := trials[0]
	for _, tr := range trials[1:] {
		if !sameShape(first, tr) {
			out := *first
			out.Notes = append(append([]string{}, first.Notes...),
				fmt.Sprintf("trials diverged in table shape; showing trial 0 of %d only", len(trials)))
			return &out
		}
	}

	out := &Table{ID: first.ID, Title: first.Title, Metrics: MergeMetrics(trials)}
	cells := make([][][]string, len(first.Rows)) // [row][outCol] -> values
	for i := range cells {
		cells[i] = make([][]string, 0, len(first.Columns))
	}
	for j, col := range first.Columns {
		switch classifyColumn(trials, j) {
		case colConstant:
			out.Columns = append(out.Columns, col)
			for i := range first.Rows {
				cells[i] = append(cells[i], []string{first.Rows[i][j]})
			}
		case colNumeric:
			out.Columns = append(out.Columns, col+":mean", col+":p50", col+":ci95")
			for i := range first.Rows {
				var s stats.Sample
				pct := true
				for _, tr := range trials {
					v, isPct, _ := parseNumericCell(tr.Rows[i][j])
					s.Add(v)
					pct = pct && isPct
				}
				suffix := ""
				if pct {
					suffix = "%"
				}
				cells[i] = append(cells[i],
					[]string{fmtAgg(s.Mean()) + suffix},
					[]string{fmtAgg(s.Median()) + suffix},
					[]string{fmtAgg(s.CI95()) + suffix})
			}
		default: // colMixed
			out.Columns = append(out.Columns, col)
			for i := range first.Rows {
				var vals []string
				seen := map[string]bool{}
				for _, tr := range trials {
					if v := tr.Rows[i][j]; !seen[v] {
						seen[v] = true
						vals = append(vals, v)
					}
				}
				cells[i] = append(cells[i], []string{strings.Join(vals, "|")})
			}
		}
	}
	for _, row := range cells {
		var flat []string
		for _, c := range row {
			flat = append(flat, c...)
		}
		out.Rows = append(out.Rows, flat)
	}
	out.Notes = append(out.Notes, first.Notes...)
	out.Notes = append(out.Notes, fmt.Sprintf(
		"merged %d trials; varying numeric cells report mean/p50/ci95 across trials (ci95 = 1.96·s/√n)",
		len(trials)))
	return out
}

// MergeMetrics folds the tables' registries together strictly in slice
// order — the same by-index discipline the table merge uses — so a parallel
// run's registry is identical to a sequential one's (and, because sketch
// merges are exact, the merged quantiles are byte-identical for any shard
// decomposition). Nil tables are skipped. Returns nil when no table carried
// a registry.
func MergeMetrics(tables []*Table) *trace.Metrics {
	var out *trace.Metrics
	for _, tr := range tables {
		if tr == nil || tr.Metrics == nil {
			continue
		}
		if out == nil {
			out = trace.NewMetrics()
		}
		out.Merge(tr.Metrics)
	}
	return out
}

func sameShape(a, b *Table) bool {
	if len(a.Columns) != len(b.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for j := range a.Columns {
		if a.Columns[j] != b.Columns[j] {
			return false
		}
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
	}
	return true
}

type colClass int

const (
	colConstant colClass = iota
	colNumeric
	colMixed
)

// classifyColumn inspects column j across all trials.
func classifyColumn(trials []*Table, j int) colClass {
	first := trials[0]
	constant := true
	numeric := true
	for i := range first.Rows {
		for _, tr := range trials {
			if tr.Rows[i][j] != first.Rows[i][j] {
				constant = false
			}
			if _, _, ok := parseNumericCell(tr.Rows[i][j]); !ok {
				numeric = false
			}
		}
	}
	switch {
	case constant:
		return colConstant
	case numeric:
		return colNumeric
	default:
		return colMixed
	}
}

// parseNumericCell extracts the leading value of a rendered cell: "3.42",
// "3.42±0.50" (std suffix dropped), or "12.5%" (reports isPct).
func parseNumericCell(s string) (v float64, isPct, ok bool) {
	s = strings.TrimSpace(s)
	if i := strings.IndexRune(s, '±'); i >= 0 {
		s = s[:i]
	}
	if strings.HasSuffix(s, "%") {
		isPct = true
		s = strings.TrimSuffix(s, "%")
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, isPct, err == nil
}

// fmtAgg renders an across-trial aggregate with enough precision to compare
// runs while staying stable across platforms.
func fmtAgg(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}
