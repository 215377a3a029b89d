package runner

import (
	"sort"
	"sync"

	"mobileqoe/internal/trace"
)

// ExemplarCell is one retained worst-cell trace: the cell's identity, the
// metric value that ranked it, and the full tracer its simulation filled.
type ExemplarCell struct {
	Index  int
	ID     string
	Trial  int
	Seed   uint64
	Value  float64
	Tracer *trace.Tracer
}

// Exemplars is the tail-based trace retention plane: every cell runs with a
// tracer (Options.Trace), but only the top-K worst cells by one registry
// metric keep theirs — the rest are released as soon as the cell's rank is
// known, so retained memory is bounded by K plus the in-flight worker count,
// never by the cell count.
//
// Observe hooks into Options.Progress (completion order), NOT Stream: ranking
// by (value desc, index asc) is a pure function of the observed set, so
// completion order does not matter for the outcome, and completion-order
// processing is what lets a non-exemplar cell's trace be dropped the moment
// it finishes instead of waiting for the in-order prefix. The retained set —
// and every retained trace's bytes — is therefore identical across -parallel
// values (pinned by TestExemplarsDeterministicAcrossParallel).
//
// Ranking metric semantics: a counter metric ranks cells by its per-cell
// value (sim.virtual_ms — virtual time consumed); a histogram metric ranks by
// its per-cell Max (browser.plt_ms — slowest page in the cell). Cells that
// failed, or never recorded the metric, are never exemplars.
type Exemplars struct {
	mu     sync.Mutex
	k      int
	metric string
	kept   []ExemplarCell
}

// NewExemplars retains the k worst cells by metric. k < 1 and an empty
// metric are programming errors at the flag layer, clamped to useful values
// here (k=1, sim.virtual_ms).
func NewExemplars(k int, metric string) *Exemplars {
	if k < 1 {
		k = 1
	}
	if metric == "" {
		metric = "sim.virtual_ms"
	}
	return &Exemplars{k: k, metric: metric}
}

// Metric returns the ranking metric name.
func (e *Exemplars) Metric() string { return e.metric }

// Observe ranks one completed cell and keeps or drops its tracer
// (ev.Trace); hook into Options.Progress of a run with Options.Trace set.
// Calls arrive serialized on the collector goroutine.
func (e *Exemplars) Observe(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ev.Trace == nil || ev.Err != nil || ev.Table == nil {
		return
	}
	v, ok := cellMetricValue(ev.Table.Metrics, e.metric)
	if !ok {
		return
	}
	e.kept = append(e.kept, ExemplarCell{Index: ev.Index, ID: ev.ID, Trial: ev.Trial,
		Seed: ev.Seed, Value: v, Tracer: ev.Trace})
	sort.Slice(e.kept, func(i, j int) bool {
		a, b := e.kept[i], e.kept[j]
		if a.Value != b.Value {
			return a.Value > b.Value
		}
		return a.Index < b.Index
	})
	if len(e.kept) > e.k {
		e.kept[e.k] = ExemplarCell{} // release the evicted tracer
		e.kept = e.kept[:e.k]
	}
}

// cellMetricValue extracts the cell's scalar for the ranking metric without
// growing the registry: histogram → per-cell max, counter → value.
func cellMetricValue(m *trace.Metrics, metric string) (float64, bool) {
	if h := m.LookupHistogram(metric); h != nil {
		if h.Count() == 0 {
			return 0, false
		}
		return h.Max(), true
	}
	if c := m.LookupCounter(metric); c != nil {
		return c.Value(), true
	}
	return 0, false
}

// Kept returns the retained cells, worst first (rank order: value descending,
// ties to the lower cell index). The slice is a copy; the tracers are shared.
func (e *Exemplars) Kept() []ExemplarCell {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]ExemplarCell(nil), e.kept...)
}
