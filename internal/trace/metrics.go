package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mobileqoe/internal/stats"
)

// Metrics is a registry of named counters and histograms aggregated over one
// run (one experiment trial). Registries from different trials merge
// deterministically — Merge is order-insensitive for counters and histogram
// bounds, and trials are merged in index order regardless of worker count,
// the same discipline internal/runner uses for tables. The histogram channel
// is fully order-insensitive too: sketch merges are exact, so any shard
// decomposition of the same observations renders the same table bytes.
//
// A nil *Metrics (and the nil handles it hands out) is the no-op default, so
// hot paths resolve a handle once and pay a nil check per update. A Metrics
// is NOT safe for concurrent use: each trial cell owns a private registry.
type Metrics struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{counters: map[string]*Counter{}, hists: map[string]*Histogram{}}
}

// Counter is a monotonically accumulated sum.
type Counter struct{ v float64 }

// Add accumulates d (no-op on nil).
func (c *Counter) Add(d float64) {
	if c != nil {
		c.v += d
	}
}

// Value returns the accumulated sum.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram summarizes observed values in a stats.HistSketch: exact count,
// sum, min and max, and approximate quantiles (within 6.25% of exact) in
// O(1) memory per metric regardless of observation count. Every method reads
// the sketch, so a histogram is a pure function of the observed multiset,
// identical across any shard/merge decomposition.
type Histogram struct{ s stats.HistSketch }

// Observe records v (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h != nil {
		h.s.Observe(v)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.read().N() }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 { return h.read().Mean() }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 { return h.read().Max() }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 { return h.read().Min() }

// Sum returns the exact sum of observations rounded once to float64.
func (h *Histogram) Sum() float64 { return h.read().Sum() }

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1), 0 when empty.
func (h *Histogram) Quantile(q float64) float64 { return h.read().Quantile(q) }

// Sketch exposes the histogram's sketch, nil on a nil histogram. Consumers
// that aggregate across cells (the SLO watchdog) merge these instead of
// re-observing, which keeps fleet quantiles exactly mergeable.
func (h *Histogram) Sketch() *stats.HistSketch {
	if h == nil {
		return nil
	}
	return &h.s
}

// emptySketch is what the read accessors see on a nil histogram. It is
// never written.
var emptySketch stats.HistSketch

func (h *Histogram) read() *stats.HistSketch {
	if h == nil {
		return &emptySketch
	}
	return &h.s
}

// Counter returns (creating if needed) the named counter handle. Resolve
// once and hold the handle on hot paths. Returns nil on a nil registry.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Histogram returns (creating if needed) the named histogram handle.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	h, ok := m.hists[name]
	if !ok {
		h = &Histogram{}
		m.hists[name] = h
	}
	return h
}

// LookupCounter returns the named counter, or nil when it was never
// registered. Unlike Counter it never creates the handle, so read-only
// consumers (the SLO watchdog, the telemetry renderer) cannot grow a
// registry they are only inspecting — a spurious empty row would change
// rendered tables.
func (m *Metrics) LookupCounter(name string) *Counter {
	if m == nil {
		return nil
	}
	return m.counters[name]
}

// LookupHistogram is LookupCounter for histograms.
func (m *Metrics) LookupHistogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	return m.hists[name]
}

// Merge folds o into m: counters add, histogram sketches merge exactly.
// Every name o registers is registered in m, an empty histogram included, so
// a merged table lists every row its parts list. A nil o is a no-op.
func (m *Metrics) Merge(o *Metrics) {
	if m == nil || o == nil {
		return
	}
	for name, c := range o.counters {
		m.Counter(name).Add(c.v)
	}
	for name, h := range o.hists {
		m.Histogram(name).s.Merge(&h.s)
	}
}

// Names returns every registered metric name, sorted.
func (m *Metrics) Names() []string {
	if m == nil {
		return nil
	}
	out := make([]string, 0, len(m.counters)+len(m.hists))
	for n := range m.counters {
		out = append(out, n)
	}
	for n := range m.hists {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Table renders the registry as an aligned ASCII table, sorted by metric
// name, deterministic for a given registry state. Histogram rows carry
// p50/p90/p99 sketch estimates.
func (m *Metrics) Table() string { return m.TableTitled("") }

// TableTitled renders Table with a parenthesized qualifier in the header —
// harnesses use it to say where a merged registry came from, e.g.
// "== metrics (merged 8 trials in trial order) ==".
func (m *Metrics) TableTitled(note string) string {
	if m == nil {
		return ""
	}
	rows := [][]string{{"metric", "kind", "count", "value/mean", "min", "max", "p50", "p90", "p99"}}
	for _, name := range m.Names() {
		if c, ok := m.counters[name]; ok {
			rows = append(rows, []string{name, "counter", "-", num(c.v), "-", "-", "-", "-", "-"})
			continue
		}
		h := m.hists[name]
		rows = append(rows, []string{name, "hist", strconv.FormatInt(h.Count(), 10), num(h.Mean()),
			num(h.Min()), num(h.Max()), num(h.Quantile(0.5)), num(h.Quantile(0.9)), num(h.Quantile(0.99))})
	}
	var b strings.Builder
	if note != "" {
		fmt.Fprintf(&b, "== metrics (%s) ==\n", note)
	} else {
		b.WriteString("== metrics ==\n")
	}
	WriteAligned(&b, rows)
	return b.String()
}

// WriteAligned writes rows as an aligned ASCII table: rows[0] is the header,
// followed by a dash rule under each column; every cell is left-justified to
// its column's widest cell, and cells are two spaces apart. A row may be
// shorter than the header, never longer. It is the one table writer behind
// the experiment tables, the metrics table and the profile tables.
func WriteAligned(b *strings.Builder, rows [][]string) {
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, r := range rows {
		for i, cell := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
}

// num renders an aggregate value compactly and platform-stably.
func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
