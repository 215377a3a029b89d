package fleet

import (
	"fmt"
	"math"
	"sort"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/stats"
)

// Agg is one metric's bounded aggregate: a HistSketch (count, exact
// sum/mean, exact min/max, ~3% quantiles) plus an ExactSum of squares, so
// the standard deviation is a pure function of merged state. Every field
// merges exactly in any grouping — the property the byte-identical
// kill/resume invariant rests on. A streaming mean/variance accumulator
// would not do: its merge is numerically excellent but not grouping-stable.
type Agg struct {
	Sketch stats.HistSketch
	SumSq  stats.ExactSum
}

// Observe records one value.
func (a *Agg) Observe(v float64) {
	a.Sketch.Observe(v)
	a.SumSq.Add(v * v)
}

// Merge folds o into a, exactly.
func (a *Agg) Merge(o *Agg) {
	a.Sketch.Merge(&o.Sketch)
	a.SumSq.Merge(&o.SumSq)
}

// Std returns the sample standard deviation from the exact sums. The single
// float rounding happens here, identically for any shard decomposition.
func (a *Agg) Std() float64 {
	n := a.Sketch.N()
	if n < 2 {
		return 0
	}
	sum := a.Sketch.Sum()
	v := (a.SumSq.Value() - sum*sum/float64(n)) / float64(n-1)
	if v < 0 {
		v = 0 // exact sums can still round to a hair below zero at query time
	}
	return math.Sqrt(v)
}

// ShardResult is one shard's complete outcome: per-metric aggregates plus
// integer tallies of what was sampled and which tuple errors occurred.
// Tuple errors (a fault plan driving a workload past its deadline, say) are
// recorded and counted, never fatal — a fleet measures a population,
// failures included. Shard-level failures (panic, timeout) are the
// supervisor's business instead.
type ShardResult struct {
	Shard int
	Start int
	End   int
	// Attempts is how many attempts the shard consumed (1 = first try);
	// WallMS the wall-clock spent. Both are wall-clock/host class — they
	// never enter the merged aggregates.
	Attempts int
	WallMS   float64

	Tuples       int
	TuplesFailed int
	// TupleErrors counts failed tuples by runlog error class.
	TupleErrors map[string]int
	// Counts tallies sampled labels per axis ("device", "network",
	// "workload", "fault_plan").
	Counts map[string]map[string]int
	// Aggs holds per-metric aggregates keyed by metric name
	// ("page.plt_ms", "iperf.throughput_mbps", ...).
	Aggs map[string]*Agg
}

func newShardResult(k, start, end int) *ShardResult {
	return &ShardResult{
		Shard: k, Start: start, End: end,
		TupleErrors: map[string]int{},
		Counts:      map[string]map[string]int{},
		Aggs:        map[string]*Agg{},
	}
}

func (r *ShardResult) count(axis, label string) {
	m := r.Counts[axis]
	if m == nil {
		m = map[string]int{}
		r.Counts[axis] = m
	}
	m[label]++
}

func (r *ShardResult) observe(metric string, v float64) {
	a := r.Aggs[metric]
	if a == nil {
		a = &Agg{}
		r.Aggs[metric] = a
	}
	a.Observe(v)
}

// record adds one tuple's outcome.
func (r *ShardResult) record(out outcome) {
	r.Tuples++
	if out.errClass != "" {
		r.TuplesFailed++
		r.TupleErrors[out.errClass]++
		return
	}
	for _, o := range out.obs[:out.n] {
		r.observe(o.metric, o.value)
	}
}

// Merged is the exact fold of shard results. It deliberately carries no
// trace of the sharding (no shard count, no per-shard data): its canonical
// rendering must be identical whether it came from 1 shard or 100.
type Merged struct {
	Tuples       int
	TuplesFailed int
	TupleErrors  map[string]int
	Counts       map[string]map[string]int
	Aggs         map[string]*Agg
}

// MergeShards folds results in the given order. Order cannot matter (every
// aggregate is exactly mergeable) — the determinism test feeds shuffled
// groupings to hold the claim to account.
func MergeShards(results []*ShardResult) *Merged {
	m := &Merged{
		TupleErrors: map[string]int{},
		Counts:      map[string]map[string]int{},
		Aggs:        map[string]*Agg{},
	}
	for _, r := range results {
		m.Tuples += r.Tuples
		m.TuplesFailed += r.TuplesFailed
		for class, n := range r.TupleErrors {
			m.TupleErrors[class] += n
		}
		for axis, labels := range r.Counts {
			dst := m.Counts[axis]
			if dst == nil {
				dst = map[string]int{}
				m.Counts[axis] = dst
			}
			for label, n := range labels {
				dst[label] += n
			}
		}
		for metric, a := range r.Aggs {
			dst := m.Aggs[metric]
			if dst == nil {
				dst = &Agg{}
				m.Aggs[metric] = dst
			}
			dst.Merge(a)
		}
	}
	return m
}

// Table renders the merged population as an experiments.Table: one row per
// metric with count, mean, std, quantiles, and extremes, plus the sampled
// mix as notes. Every value is a pure function of merged state, so the
// rendering is byte-identical across shard counts, -parallel, and
// kill/resume schedules.
func (m *Merged) Table(spec *Spec) *experiments.Table {
	title := spec.Title
	if title == "" {
		title = "Fleet: " + spec.Name
	}
	t := &experiments.Table{
		ID:      "fleet:" + spec.Name,
		Title:   title,
		Columns: []string{"metric", "n", "mean", "std", "p50", "p90", "p99", "min", "max"},
	}
	metrics := make([]string, 0, len(m.Aggs))
	for k := range m.Aggs {
		metrics = append(metrics, k)
	}
	sort.Strings(metrics)
	for _, k := range metrics {
		a := m.Aggs[k]
		t.AddRow(k,
			fmt.Sprintf("%d", a.Sketch.N()),
			fmt.Sprintf("%.3f", a.Sketch.Mean()),
			fmt.Sprintf("%.3f", a.Std()),
			fmt.Sprintf("%.3f", a.Sketch.Quantile(0.5)),
			fmt.Sprintf("%.3f", a.Sketch.Quantile(0.9)),
			fmt.Sprintf("%.3f", a.Sketch.Quantile(0.99)),
			fmt.Sprintf("%.3f", a.Sketch.Min()),
			fmt.Sprintf("%.3f", a.Sketch.Max()),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("population: %d tuples, %d ok, %d failed", m.Tuples, m.Tuples-m.TuplesFailed, m.TuplesFailed))
	for _, axis := range []string{"device", "network", "workload", "fault_plan"} {
		if labels := m.Counts[axis]; len(labels) > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("mix %s: %s", axis, countLine(labels)))
		}
	}
	if len(m.TupleErrors) > 0 {
		t.Notes = append(t.Notes, "tuple errors: "+countLine(m.TupleErrors))
	}
	t.Notes = append(t.Notes, spec.Notes...)
	return t
}

// countLine renders a tally map as sorted "k=v" pairs.
func countLine(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", k, m[k])
	}
	return out
}
