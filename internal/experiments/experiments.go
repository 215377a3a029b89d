// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulation stack, one registered runner per artifact.
// Each runner returns a Table whose rows correspond to the points the paper
// plots, so `qoesim -run fig3a` prints the series behind Fig. 3a.
//
// The experiment IDs follow the paper: table1, fig1, fig2a–fig2c, fig3a–d,
// fig4a–d, fig5a–d, fig6, fig7a–c, plus the in-text analyses (text-crit,
// text-regex) and the ablations DESIGN.md §5 calls out (abl-*).
//
// The one-axis figures (fig2b, fig2c, fig3a–fig6) are Sweep values: one
// workload measured at each Point of one axis. So are the comparison tables
// (fig2a, abl-packetcpu, abl-prefetch, abl-hwdecoder, abl-biglittle, ext-tls,
// ext-h2, ext-browsers, ext-joint), which measure each point under a few
// Variants and derive their cells with Sweep.Row. internal/scenario compiles a
// scenario file into a Sweep built with the same point builders, and
// internal/fleet runs its tuples through the same Workload, so a figure, a
// scenario and a fleet tuple share one implementation of running a cell.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mobileqoe/internal/fault"
	"mobileqoe/internal/trace"
)

// Config scales experiment effort. The defaults favor quick runs; the paper
// used 20 trials of the full corpus and 5-minute clips, which Full() (plus
// Trials: 20) selects.
type Config struct {
	Seed          uint64        // corpus seed; default 1 (ZeroSeed for a real 0)
	Pages         int           // pages per web measurement; default 6
	ClipDuration  time.Duration // streaming clip length; default 60 s
	CallDuration  time.Duration // call media length; default 30 s
	IperfDuration time.Duration // bulk-transfer length; default 3 s
	// Trials is the number of independent repetitions per experiment;
	// default 1. Multi-trial runs derive a disjoint seed per trial (see
	// TrialSeed) and merge the per-trial tables with MergeTrials.
	Trials int

	// Trace, when non-nil, receives spans and counters from every system a
	// trial builds (see internal/trace). The tracer is mutex-safe, but
	// emission order across concurrently running cells is nondeterministic,
	// so byte-identical traces need one tracer per cell: internal/runner
	// gives each cell attempt a fresh one under Options.Trace, and
	// trace.Tracer.Append combines them in cell order.
	Trace *trace.Tracer

	// Metrics enables the per-trial metrics registry: each trial accumulates
	// counters/histograms into a fresh registry attached to its Table (see
	// Table.Metrics), and MergeTrials folds them together in trial order.
	Metrics bool

	// Faults, when non-nil, attaches this fault plan to every system a trial
	// builds. Each system's injector is seeded from the trial seed and the
	// system's ordinal within the trial (stats.SplitMix64), so a faulted
	// trial is byte-identical whether the harness runs it sequentially or on
	// a worker pool.
	Faults *fault.Plan

	// reg is the registry of the currently executing trial; RunTrial creates
	// it when Metrics is set and runners thread it into their systems.
	reg *trace.Metrics

	// faultSeq numbers the systems built so far by the currently executing
	// trial, so each gets a distinct, position-stable injector seed. RunTrial
	// allocates it per trial when Faults is set.
	faultSeq *uint64
}

// Sentinels distinguishing "explicitly zero" from "unset, use the default".
// A literal 0 in a Config field always means "default"; these values mean
// "really zero".
const (
	// ZeroSeed requests corpus seed 0. (Plain Seed: 0 selects the default
	// seed 1.) Prefer Config.WithSeed, which picks the sentinel for you.
	ZeroSeed uint64 = ^uint64(0)
	// ZeroDuration requests a zero-length duration field, e.g. a clip of
	// no media at all. (A plain 0 selects that field's default.)
	ZeroDuration time.Duration = -1
)

// WithSeed returns a copy of c requesting exactly seed s, mapping 0 to the
// ZeroSeed sentinel so WithDefaults does not substitute the default seed.
func (c Config) WithSeed(s uint64) Config {
	if s == 0 {
		c.Seed = ZeroSeed
	} else {
		c.Seed = s
	}
	return c
}

// WithDefaults resolves unset fields to their defaults and sentinel values
// to real zeros. It is exported so out-of-package harnesses (internal/runner,
// cmd/qoesim) normalize exactly like Run does. Because sentinel information
// is consumed here, normalize a user-supplied Config exactly once: a second
// application would turn an explicit zero back into the default.
func (c Config) WithDefaults() Config {
	switch c.Seed {
	case 0:
		c.Seed = 1
	case ZeroSeed:
		c.Seed = 0
	}
	if c.Pages == 0 {
		c.Pages = 6
	}
	c.ClipDuration = defaultDuration(c.ClipDuration, 60*time.Second)
	c.CallDuration = defaultDuration(c.CallDuration, 30*time.Second)
	c.IperfDuration = defaultDuration(c.IperfDuration, 3*time.Second)
	if c.Trials < 1 {
		c.Trials = 1
	}
	return c
}

// defaultDuration resolves one duration field: 0 means unset, negative
// (ZeroDuration) means an explicit zero.
func defaultDuration(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	if d < 0 {
		return 0
	}
	return d
}

// Full returns the paper-scale configuration (slow: full corpus, 5-minute
// clips).
func Full() Config {
	return Config{Pages: 50, ClipDuration: 5 * time.Minute,
		CallDuration: time.Minute, IperfDuration: 10 * time.Second}
}

// Table is one regenerated artifact.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string // calibration/shape caveats worth printing
	// Metrics is the run's aggregated registry, present only when the run
	// was configured with Config.Metrics. For merged multi-trial tables it
	// is the trial registries folded in trial order.
	Metrics *trace.Metrics
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders an aligned ASCII table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	trace.WriteAligned(&b, append([][]string{t.Columns}, t.Rows...))
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner produces a table under a configuration. A runner reports rather
// than panics when a cell cannot finish — notably the typed core.ErrDeadline
// a wedged simulation returns — so harnesses (internal/runner, qoesim) can
// record a per-cell error without a recover path.
type Runner func(Config) (*Table, error)

type entry struct {
	fn   Runner
	desc string
}

var registry = map[string]entry{}

func register(id, desc string, fn Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = entry{fn: fn, desc: desc}
}

// IDs returns all experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns an experiment's one-line description.
func Describe(id string) string { return registry[id].desc }

// TrialSeed derives the corpus seed for one trial of a multi-trial run.
// Trials get disjoint seed namespaces (base·10⁶ + trial) so no two trials of
// the same base seed share a corpus, while every trial stays reproducible
// from the base seed alone.
func TrialSeed(base uint64, trial int) uint64 {
	return base*1_000_000 + uint64(trial)
}

// CellSeed returns the seed trial t of the normalized config c runs under:
// the base seed unchanged for a single-trial run, TrialSeed(base, t) for a
// multi-trial one.
func CellSeed(c Config, trial int) uint64 {
	if c.Trials <= 1 {
		return c.Seed
	}
	return TrialSeed(c.Seed, trial)
}

// AttemptSeed derives the seed of retry attempt a of a cell from the cell's
// trial seed. Attempt 0 is the seed unchanged, so retry-free runs are
// untouched; later attempts explore a decorrelated seed so a crash tied to
// one pathological corpus draw does not repeat forever.
func AttemptSeed(seed uint64, attempt int) uint64 {
	return seed ^ uint64(attempt)*0x9e3779b97f4a7c15
}

// RunTrial executes exactly one trial of an experiment under CellSeed. cfg
// is the caller's un-normalized Config.
func RunTrial(id string, cfg Config, trial int) (*Table, error) {
	return RunTrialAttempt(id, cfg, trial, 0)
}

// RunTrialAttempt is RunTrial for retry harnesses: attempt > 0 reruns the
// trial under AttemptSeed, which is how internal/runner retries a crashed
// cell without replaying the exact crashing run.
func RunTrialAttempt(id string, cfg Config, trial, attempt int) (*Table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, unknownErr(id)
	}
	return RunTrialAttemptFn(id, e.fn, cfg, trial, attempt)
}

// RunTrialAttemptFn is RunTrialAttempt for a runner that is not in the
// registry. Scenario runners are composed per request (internal/engine,
// cmd/qoesimd) and resolved privately through runner.Options.Resolve, so
// they execute through this entry point rather than a registry id. The
// seed-derivation and per-trial setup discipline is identical to the
// registry path — that is the whole point: one implementation of "run one
// cell".
func RunTrialAttemptFn(id string, fn Runner, cfg Config, trial, attempt int) (*Table, error) {
	if fn == nil {
		return nil, unknownErr(id)
	}
	c := cfg.WithDefaults()
	if trial < 0 || trial >= c.Trials {
		return nil, fmt.Errorf("experiments: trial %d out of range [0,%d)", trial, c.Trials)
	}
	c.Seed = CellSeed(c, trial)
	if attempt > 0 {
		c.Seed = AttemptSeed(c.Seed, attempt)
	}
	c.Trials = 1
	if c.Metrics {
		c.reg = trace.NewMetrics()
	}
	if c.Faults != nil {
		c.faultSeq = new(uint64)
	}
	tab, err := fn(c)
	if err != nil {
		return nil, err
	}
	tab.Metrics = c.reg
	return tab, nil
}

// Run executes one experiment. With cfg.Trials > 1 it runs every trial
// sequentially and returns the MergeTrials result. It is the sequential
// reference tests hold runner.Run to: runner.Run produces byte-identical
// output by fanning the same trials across a worker pool.
func Run(id string, cfg Config) (*Table, error) {
	if _, ok := registry[id]; !ok {
		return nil, unknownErr(id)
	}
	c := cfg.WithDefaults()
	if c.Trials == 1 {
		return RunTrial(id, cfg, 0)
	}
	tabs := make([]*Table, c.Trials)
	for t := range tabs {
		tab, err := RunTrial(id, cfg, t)
		if err != nil {
			return nil, err
		}
		tabs[t] = tab
	}
	return MergeTrials(tabs), nil
}

func unknownErr(id string) error {
	return fmt.Errorf("experiments: unknown experiment %q (have %s)",
		id, strings.Join(IDs(), ", "))
}

// Formatting helpers shared by the runners.

func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }
func ratio(v float64) string      { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string        { return fmt.Sprintf("%.1f%%", v*100) }
func fps(v float64) string        { return fmt.Sprintf("%.1f", v) }
func mbps(v float64) string       { return fmt.Sprintf("%.1f", v) }
func watts(v float64) string      { return fmt.Sprintf("%.2f", v) }
func meanStd(m, s float64) string { return fmt.Sprintf("%.2f±%.2f", m, s) }
