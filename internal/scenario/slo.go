package scenario

import (
	"fmt"
	"sort"

	"mobileqoe/internal/runlog"
	"mobileqoe/internal/stats"
	"mobileqoe/internal/trace"
)

// Rule is one watched metric's SLO clause set. Clauses are optional and
// compose; a rule with no clauses is a validation error. The *_lt_ms clauses
// bound an online estimate from below-threshold ("the p99 must stay under");
// eq_injected asserts the watched counter equals the cell's fault.injected
// counter (the recovery-completeness invariant fault plans promise).
type Rule struct {
	P50LtMS    *float64 `json:"p50_lt_ms,omitempty"`
	P90LtMS    *float64 `json:"p90_lt_ms,omitempty"`
	P99LtMS    *float64 `json:"p99_lt_ms,omitempty"`
	MaxLtMS    *float64 `json:"max_lt_ms,omitempty"`
	MeanLtMS   *float64 `json:"mean_lt_ms,omitempty"`
	EqInjected *bool    `json:"eq_injected,omitempty"`
}

// clauses enumerates the rule's threshold clauses in evaluation order, so
// alert emission order is a fixed function of the rule, not of map iteration.
func (r Rule) clauses() []struct {
	name string
	thr  *float64
} {
	return []struct {
		name string
		thr  *float64
	}{
		{"p50_lt_ms", r.P50LtMS},
		{"p90_lt_ms", r.P90LtMS},
		{"p99_lt_ms", r.P99LtMS},
		{"max_lt_ms", r.MaxLtMS},
		{"mean_lt_ms", r.MeanLtMS},
	}
}

// validateSLO checks an slo: block. Metric keys are free-form registry names
// (the watchdog tolerates absent metrics — a typo alerts nothing, so the CI
// recipe pairs every SLO with one rule known to trip), but every rule must
// carry at least one clause with a sane threshold.
func validateSLO(name string, slo map[string]Rule) error {
	metrics := make([]string, 0, len(slo))
	for m := range slo {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)
	for _, m := range metrics {
		if m == "" {
			return fmt.Errorf("scenario %s: slo metric name must not be empty", name)
		}
		r := slo[m]
		n := 0
		for _, c := range r.clauses() {
			if c.thr == nil {
				continue
			}
			n++
			if *c.thr <= 0 {
				return fmt.Errorf("scenario %s: slo %s.%s threshold %v must be positive", name, m, c.name, *c.thr)
			}
		}
		if r.EqInjected != nil {
			n++
			if !*r.EqInjected {
				return fmt.Errorf("scenario %s: slo %s.eq_injected must be true when present (omit it otherwise)", name, m)
			}
		}
		if n == 0 {
			return fmt.Errorf("scenario %s: slo metric %q has no clauses", name, m)
		}
	}
	return nil
}

// Watchdog evaluates a scenario's slo: block online, cell by cell, against
// bounded aggregates — memory is O(watched metrics), never O(cells).
//
// Aggregation semantics per watched metric:
//
//   - counter in the cell registry (sim.virtual_ms): the per-cell value is one
//     observation, so quantile clauses bound the distribution *over cells*.
//   - histogram in the cell registry (browser.plt_ms): its bounded sketch is
//     merged, so clauses bound the distribution over *all observations*.
//   - eq_injected compares the watched counter against fault.injected within
//     each completed cell (registries are final per cell, so the equality is
//     exact, not racy).
//
// Determinism: the harness feeds ObserveCell from the runner's Stream hook,
// which delivers cells in cell order regardless of -parallel; estimates come
// from exactly-mergeable sketches; each (metric, rule) trips at most once; and
// metrics evaluate in sorted name order. Two runs of the same configuration
// therefore emit byte-identical alert records.
//
// A nil *Watchdog (no slo: block) is inert: ObserveCell returns nil.
type Watchdog struct {
	rules   map[string]Rule
	metrics []string // sorted watch list
	agg     map[string]*stats.HistSketch
	tripped map[string]bool
}

// NewWatchdog builds a watchdog for a validated slo: block; nil when the
// block is empty.
func NewWatchdog(slo map[string]Rule) *Watchdog {
	if len(slo) == 0 {
		return nil
	}
	w := &Watchdog{
		rules:   make(map[string]Rule, len(slo)),
		agg:     make(map[string]*stats.HistSketch, len(slo)),
		tripped: map[string]bool{},
	}
	for m, r := range slo {
		w.rules[m] = r
		w.agg[m] = &stats.HistSketch{}
		w.metrics = append(w.metrics, m)
	}
	sort.Strings(w.metrics)
	return w
}

// ObserveCell folds one completed cell's registry into the aggregates and
// returns any alerts that tripped on its arrival (usually none). The caller
// must deliver cells in cell order; lookups never create registry entries, so
// observing leaves the cell's rendered tables untouched.
func (w *Watchdog) ObserveCell(index int, id string, trial int, m *trace.Metrics) []runlog.Alert {
	if w == nil || m == nil {
		return nil
	}
	var out []runlog.Alert
	trip := func(metric, rule string, threshold, value float64, n int64) {
		key := metric + "\x00" + rule
		if w.tripped[key] {
			return
		}
		w.tripped[key] = true
		out = append(out, runlog.Alert{
			Metric: metric, Rule: rule, Threshold: threshold, Value: value,
			CellIndex: index, CellID: id, Trial: trial, N: n,
		})
	}
	for _, name := range w.metrics {
		r := w.rules[name]
		sk := w.agg[name]
		if h := m.LookupHistogram(name); h != nil {
			sk.Merge(h.Sketch())
		} else if c := m.LookupCounter(name); c != nil {
			sk.Observe(c.Value())
		}
		if r.EqInjected != nil {
			got := m.LookupCounter(name).Value()
			want := m.LookupCounter("fault.injected").Value()
			if got != want {
				trip(name, "eq_injected", want, got, 1)
			}
		}
		if sk.N() == 0 {
			continue
		}
		for _, c := range r.clauses() {
			if c.thr == nil {
				continue
			}
			var v float64
			switch c.name {
			case "p50_lt_ms":
				v = sk.Quantile(0.5)
			case "p90_lt_ms":
				v = sk.Quantile(0.9)
			case "p99_lt_ms":
				v = sk.Quantile(0.99)
			case "max_lt_ms":
				v = sk.Max()
			case "mean_lt_ms":
				v = sk.Mean()
			}
			if v >= *c.thr {
				trip(name, c.name, *c.thr, v, sk.N())
			}
		}
	}
	return out
}
