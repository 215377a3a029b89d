package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mobileqoe/internal/stats"
)

// HistMode selects how a registry's histograms summarize observations.
type HistMode int

const (
	// HistScalar keeps count/sum/min/max only — the original registry
	// behavior and still the default, so every existing golden table is
	// byte-identical. No quantiles.
	HistScalar HistMode = iota
	// HistBounded adds a fixed-size stats.HistSketch per histogram:
	// approximate p50/p90/p99 (documented ≤ ~6.25% relative error) in O(1)
	// memory per metric regardless of observation count, with an exact
	// mergeable sum backing the mean. This is the fleet-scale mode: a
	// million-sample histogram costs the same bytes as an empty one, and
	// N-shard registry merges are byte-identical to a 1-shard run.
	HistBounded
)

func (m HistMode) String() string {
	switch m {
	case HistScalar:
		return "scalar"
	case HistBounded:
		return "bounded"
	default:
		return fmt.Sprintf("HistMode(%d)", int(m))
	}
}

// ParseHistMode resolves the CLI spelling of a mode.
func ParseHistMode(s string) (HistMode, error) {
	switch s {
	case "", "scalar":
		return HistScalar, nil
	case "bounded":
		return HistBounded, nil
	default:
		return 0, fmt.Errorf("trace: unknown metrics mode %q (want scalar|bounded)", s)
	}
}

// Metrics is a registry of named counters and histograms aggregated over one
// run (one experiment trial). Registries from different trials merge
// deterministically — Merge is order-insensitive for counters and histogram
// bounds, and trials are merged in index order regardless of worker count,
// the same discipline internal/runner uses for tables. In HistBounded mode
// the histogram channel is fully order-insensitive too: sketch merges are
// exact, so any shard decomposition of the same observations renders the
// same table bytes.
//
// A nil *Metrics (and the nil handles it hands out) is the no-op default, so
// hot paths resolve a handle once and pay a nil check per update. A Metrics
// is NOT safe for concurrent use: each trial cell owns a private registry.
type Metrics struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
	mode     HistMode
}

// NewMetrics returns an empty registry in HistScalar mode.
func NewMetrics() *Metrics { return NewMetricsMode(HistScalar) }

// NewMetricsMode returns an empty registry whose histograms follow mode.
func NewMetricsMode(mode HistMode) *Metrics {
	return &Metrics{counters: map[string]*Counter{}, hists: map[string]*Histogram{}, mode: mode}
}

// Mode returns the registry's histogram mode (HistScalar on nil).
func (m *Metrics) Mode() HistMode {
	if m == nil {
		return HistScalar
	}
	return m.mode
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

// Histogram summarizes observed values: count, sum, min, max, and — in
// HistBounded registries — approximate quantiles via a fixed-size sketch.
type Histogram struct {
	n        int64
	sum      float64
	min, max float64
	sketch   *stats.HistSketch // HistBounded: O(1) quantiles, exact merge
}

// Observe records v (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	if h.sketch != nil {
		h.sketch.Observe(v)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Mean returns the mean observation (0 when empty). In HistBounded mode it
// is computed from the sketch's exact sum, so it is a pure function of the
// observed multiset — identical across any shard/merge decomposition.
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	if h.sketch != nil {
		return h.sketch.Mean()
	}
	return h.sum / float64(h.n)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Sum returns the sum of observations. In HistBounded mode it comes from the
// sketch's exact integer-limb sum, so it is independent of shard grouping.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	if h.sketch != nil {
		return h.sketch.Sum()
	}
	return h.sum
}

// Sketch exposes the histogram's bounded-sketch backing, nil outside
// HistBounded mode (or after a cross-mode merge dropped it). Consumers that
// aggregate across cells (the SLO watchdog) merge these instead of
// re-observing, which keeps fleet quantiles exactly mergeable.
func (h *Histogram) Sketch() *stats.HistSketch {
	if h == nil {
		return nil
	}
	return h.sketch
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1). The second return is
// false when the histogram has no quantile backing (HistScalar registries,
// or a cross-mode merge that dropped it).
func (h *Histogram) Quantile(q float64) (float64, bool) {
	switch {
	case h == nil:
		return 0, false
	case h.sketch != nil:
		return h.sketch.Quantile(q), true
	default:
		return 0, false
	}
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

// Histogram returns (creating if needed) the named histogram handle, backed
// according to the registry's mode.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	h, ok := m.hists[name]
	if !ok {
		h = &Histogram{}
		if m.mode == HistBounded {
			h.sketch = &stats.HistSketch{}
		}
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

// Merge folds o into m: counters add, histograms combine (counts and sums
// add, bounds widen, quantile backings merge when both sides carry the same
// kind). Merging histograms of different modes keeps the scalar fields and
// drops the receiver-side quantile channel for that metric — Quantile then
// reports ok=false rather than a silently partial estimate. Every name o
// registers is registered in m, an empty histogram included, so a merged
// table lists every row its parts list. A nil o is a no-op.
func (m *Metrics) Merge(o *Metrics) {
	if m == nil || o == nil {
		return
	}
	for name, c := range o.counters {
		m.Counter(name).Add(c.v)
	}
	for name, h := range o.hists {
		d := m.Histogram(name)
		if h.n == 0 {
			continue
		}
		if d.n == 0 || h.min < d.min {
			d.min = h.min
		}
		if d.n == 0 || h.max > d.max {
			d.max = h.max
		}
		d.n += h.n
		d.sum += h.sum
		if d.sketch != nil && h.sketch != nil {
			d.sketch.Merge(h.sketch)
		} else {
			d.sketch = nil
		}
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
// name, deterministic for a given registry state. HistScalar registries
// render exactly the historical six columns (so golden outputs are
// unchanged); quantile-capable modes append p50/p90/p99.
func (m *Metrics) Table() string { return m.TableTitled("") }

// TableTitled renders Table with a parenthesized qualifier in the header —
// harnesses use it to say where a merged registry came from, e.g.
// "== metrics (merged 8 trials in trial order) ==".
func (m *Metrics) TableTitled(note string) string {
	if m == nil {
		return ""
	}
	quant := m.mode != HistScalar
	header := []string{"metric", "kind", "count", "value/mean", "min", "max"}
	if quant {
		header = append(header, "p50", "p90", "p99")
	}
	rows := [][]string{header}
	for _, name := range m.Names() {
		if c, ok := m.counters[name]; ok {
			row := []string{name, "counter", "-", num(c.v), "-", "-"}
			if quant {
				row = append(row, "-", "-", "-")
			}
			rows = append(rows, row)
			continue
		}
		h := m.hists[name]
		row := []string{name, "hist",
			strconv.FormatInt(h.n, 10), num(h.Mean()), num(h.min), num(h.max)}
		if quant {
			for _, q := range []float64{0.5, 0.9, 0.99} {
				if v, ok := h.Quantile(q); ok {
					row = append(row, num(v))
				} else {
					row = append(row, "-") // cross-mode merge dropped the backing
				}
			}
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if note != "" {
		fmt.Fprintf(&b, "== metrics (%s) ==\n", note)
	} else {
		b.WriteString("== metrics ==\n")
	}
	for ri, r := range rows {
		for i, cell := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
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
	return b.String()
}

// num renders an aggregate value compactly and platform-stably.
func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
