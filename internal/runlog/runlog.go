// Package runlog is the structured run log: a newline-delimited JSON (NDJSON)
// stream describing one harness run — a manifest header identifying what ran,
// one record per completed (experiment, trial) cell, periodic health
// snapshots, typed alert records when an SLO watchdog trips, exemplar records
// naming the retained worst-cell traces, and a closing summary. The log is an
// append-only observer: it is written from the runner's progress path and
// never feeds back into results, so a run with and without a log is
// byte-identical on stdout.
//
// Determinism contract. Record fields split into two classes:
//
//   - deterministic: everything derived from the configuration or the
//     simulation (ids, trials, seeds, status, error class, virtual time,
//     fault counts). Two runs of the same binary with the same flags produce
//     identical values in these fields, regardless of -parallel.
//   - wall-clock: started_at, wall_ms, cells_per_sec, eta_ms, the runtime
//     block, and record *interleaving* (health snapshots land wherever the
//     wall clock says). Comparisons across runs must filter these out; the
//     worked jq recipes in EXPERIMENTS.md do.
//
// Cell records carry a monotonically increasing "index" in cell order
// (experiment-major, trial-minor), so a sorted-by-index projection of the
// deterministic fields is stable even though cells complete out of order.
//
// Every line is a single JSON object with a "type" discriminator. Schema
// changes bump Schema; Validate rejects logs written by a different major
// schema so CI catches drift instead of silently mis-parsing.
package runlog

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"mobileqoe/internal/buildinfo"
	"mobileqoe/internal/core"
	"mobileqoe/internal/strictjson"
)

// Schema is the run-log schema version. Bump on any field rename/removal or
// semantic change; additions that old readers can ignore do not require a
// bump (Validate is strict for *writers in this tree*, but downstream readers
// should tolerate unknown fields).
//
// Schema history:
//
//	1  manifest/cell/health/summary
//	2  adds "alert" (SLO watchdog trip) and "exemplar" (retained worst-cell
//	   trace) record types plus summary.slo_violations
const Schema = 2

// Manifest is the first record of every log: enough to re-run the command
// and to tell two archived logs apart.
type Manifest struct {
	Type   string `json:"type"` // "manifest"
	Schema int    `json:"schema"`
	// Tool is the producing command ("qoesim", "pageload", ...).
	Tool string `json:"tool"`
	// StartedAt is RFC3339 wall-clock. Wall-clock class: exclude from diffs.
	StartedAt string `json:"started_at,omitempty"`
	// CodeVersion is the module version/VCS revision baked into the binary
	// by the Go toolchain (best effort — "devel" builds may carry none).
	CodeVersion string `json:"code_version,omitempty"`
	// Scenario is the -scenario path as given; ScenarioSHA256 fingerprints
	// the file bytes so archived logs pin the exact scenario revision.
	Scenario       string `json:"scenario,omitempty"`
	ScenarioSHA256 string `json:"scenario_sha256,omitempty"`
	// Experiments lists the registry ids in run order.
	Experiments []string `json:"experiments"`
	Seed        uint64   `json:"seed"`
	// SeedSchedule documents how per-cell seeds derive from Seed, so a log
	// reader can reproduce any single cell without the whole sweep.
	SeedSchedule string `json:"seed_schedule"`
	Trials       int    `json:"trials"`
	Parallel     int    `json:"parallel"`
	// FaultPlan is the -faults path (empty: no injection).
	FaultPlan string `json:"fault_plan,omitempty"`
	// Flags records every flag explicitly set on the command line.
	Flags map[string]string `json:"flags,omitempty"`
}

// Stamp fills in the fields the executor knows and the composed plan does
// not: the producing tool, the build's code version and the start time. A
// Parallel ≤ 0 means the runner's default and is logged as the worker count
// it resolves to, GOMAXPROCS.
func (m *Manifest) Stamp(tool string, started time.Time) {
	m.Tool = tool
	m.CodeVersion = buildinfo.CodeVersion()
	m.StartedAt = started.UTC().Format(time.RFC3339)
	if m.Parallel <= 0 {
		m.Parallel = runtime.GOMAXPROCS(0)
	}
}

// Cell is one completed (experiment, trial) cell.
type Cell struct {
	Type string `json:"type"` // "cell"
	// Index is the cell's position in deterministic cell order
	// (experiment-major, trial-minor) — not completion order.
	Index   int    `json:"index"`
	ID      string `json:"id"`
	Trial   int    `json:"trial"`
	Seed    uint64 `json:"seed"`
	Attempt int    `json:"attempt"` // attempt the outcome came from (0 = first try)
	Status  string `json:"status"`  // "ok" | "error"
	// ErrorClass is ClassifyError's stable bucket; Error is the raw message
	// (error class is deterministic, the message should be too, but only the
	// class is contract).
	ErrorClass string `json:"error_class,omitempty"`
	Error      string `json:"error,omitempty"`
	// WallMS is host time — wall-clock class.
	WallMS float64 `json:"wall_ms"`
	// VirtualMS is simulated time consumed by the cell — deterministic.
	VirtualMS float64 `json:"virtual_ms,omitempty"`
	// Fault counters from the cell's registry — deterministic.
	FaultsInjected  int64 `json:"faults_injected,omitempty"`
	FaultsRecovered int64 `json:"faults_recovered,omitempty"`
	// Restored marks a cell whose outcome was loaded from a checkpoint
	// rather than executed in this process (fleet -resume). WallMS then
	// reports the original execution's wall time. Additive field: readers of
	// schema 2 logs that predate it see it only as absent/false.
	Restored bool `json:"restored,omitempty"`
}

// RuntimeSnapshot is the Go runtime block shared by health records and
// scripts/runtimestats: GC and heap counters since process start.
type RuntimeSnapshot struct {
	NumGC           uint32  `json:"num_gc"`
	GCPauseTotalMS  float64 `json:"gc_pause_total_ms"`
	PeakHeapBytes   uint64  `json:"peak_heap_bytes"`
	AllocTotalBytes uint64  `json:"alloc_total_bytes"`
	HeapObjects     uint64  `json:"heap_objects"`
}

// CaptureRuntime reads the current runtime counters. It calls
// runtime.ReadMemStats, which stops the world briefly — health snapshot
// cadence (seconds), not per-cell cadence.
func CaptureRuntime() RuntimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeSnapshot{
		NumGC:           ms.NumGC,
		GCPauseTotalMS:  float64(ms.PauseTotalNs) / 1e6,
		PeakHeapBytes:   ms.HeapSys,
		AllocTotalBytes: ms.TotalAlloc,
		HeapObjects:     ms.HeapObjects,
	}
}

// Health is a periodic liveness snapshot. Entirely wall-clock class.
type Health struct {
	Type        string  `json:"type"` // "health"
	Done        int     `json:"done"`
	Total       int     `json:"total"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	CellsPerSec float64 `json:"cells_per_sec"`
	// ETAMS estimates remaining wall time from the completion rate so far
	// (0 when done == 0).
	ETAMS float64 `json:"eta_ms"`
	// WallP50MS/WallP95MS are per-cell wall-time quantiles of the freshly
	// executed cells, read from one stats.HistSketch (within its documented
	// 6.25% relative error).
	WallP50MS float64         `json:"wall_p50_ms"`
	WallP95MS float64         `json:"wall_p95_ms"`
	Runtime   RuntimeSnapshot `json:"runtime"`
}

// Alert is one SLO watchdog trip: a scenario's slo: block rule crossed its
// threshold. Alerts are deterministic-class records — the watchdog evaluates
// bounded sketches over deterministic per-cell values in cell-completion
// stream order, and emits at most one alert per (metric, rule), so two runs
// of the same configuration produce identical alert records.
type Alert struct {
	Type string `json:"type"` // "alert"
	// Metric is the registry metric the rule watches ("sim.virtual_ms").
	Metric string `json:"metric"`
	// Rule is the violated clause's JSON key ("p99_lt_ms", "eq_injected").
	Rule string `json:"rule"`
	// Threshold is the configured bound (0 for equality rules); Value is the
	// online estimate that crossed it.
	Threshold float64 `json:"threshold,omitempty"`
	Value     float64 `json:"value"`
	// CellIndex/CellID/Trial name the cell whose arrival tripped the rule.
	CellIndex int    `json:"cell_index"`
	CellID    string `json:"cell_id,omitempty"`
	Trial     int    `json:"trial"`
	// N is the observation count behind the estimate at trip time.
	N int64 `json:"n,omitempty"`
}

// Exemplar references one retained worst-cell trace: rank 0 is the worst
// cell of the run by the configured metric. The referenced Path holds the
// cell's full trace (Chrome trace-event JSON), replayable through tracediff
// and the profile tooling. Deterministic class: the retained set is a pure
// function of the configuration (top-K by value, ties to the lower index).
type Exemplar struct {
	Type   string  `json:"type"` // "exemplar"
	Rank   int     `json:"rank"`
	Index  int     `json:"index"`
	ID     string  `json:"id"`
	Trial  int     `json:"trial"`
	Seed   uint64  `json:"seed"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Path   string  `json:"path,omitempty"`
}

// Summary closes the log.
type Summary struct {
	Type        string  `json:"type"` // "summary"
	CellsOK     int     `json:"cells_ok"`
	CellsFailed int     `json:"cells_failed"`
	WallMS      float64 `json:"wall_ms"`
	Status      string  `json:"status"` // "ok" | "failed"
	// SLOViolations counts the distinct (metric, rule) pairs that tripped.
	SLOViolations int `json:"slo_violations,omitempty"`
}

// ClassifyError buckets a cell error into a small stable vocabulary, so log
// consumers can aggregate failures without parsing wrapped message chains:
//
//	""         nil error (status "ok")
//	"deadline" the simulation's virtual deadline expired (core.ErrDeadline)
//	"canceled" the run's context was canceled or its wall timeout expired
//	"panic"    a registry runner panicked (recovered by the pool)
//	"error"    everything else
func ClassifyError(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, core.ErrDeadline):
		return "deadline"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	case strings.Contains(err.Error(), "panic:"):
		return "panic"
	default:
		return "error"
	}
}

// SetOutcome records a cell's outcome: status "ok" for a nil err, else
// status "error" with ClassifyError's class and the message. Experiment
// cells and fleet shards both map their error through it.
func (c *Cell) SetOutcome(err error) {
	c.Status = "ok"
	if err != nil {
		c.Status = "error"
		c.ErrorClass = ClassifyError(err)
		c.Error = err.Error()
	}
}

// Writer emits the NDJSON stream. It enforces the structural contract at
// write time — manifest first, cell indexes strictly increasing, nothing
// after the summary — so a malformed log is a bug at the producing site, not
// a surprise in CI. Safe for concurrent use.
type Writer struct {
	mu       sync.Mutex
	w        io.Writer
	manifest bool
	closed   bool
	lastCell int
}

// NewWriter wraps w. The caller owns w's lifetime (and any buffering).
func NewWriter(w io.Writer) *Writer { return &Writer{w: w, lastCell: -1} }

func (l *Writer) emit(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runlog: marshal: %w", err)
	}
	b = append(b, '\n')
	_, err = l.w.Write(b)
	return err
}

// Manifest writes the header record. Must be the first write, exactly once.
func (l *Writer) Manifest(m Manifest) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.manifest {
		return errors.New("runlog: duplicate manifest")
	}
	l.manifest = true
	m.Type = "manifest"
	m.Schema = Schema
	if m.Experiments == nil {
		m.Experiments = []string{}
	}
	return l.emit(m)
}

// Cell writes one cell record.
func (l *Writer) Cell(c Cell) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.open(); err != nil {
		return err
	}
	if c.Index <= l.lastCell {
		return fmt.Errorf("runlog: cell index %d not after %d (cells must be written in cell order)",
			c.Index, l.lastCell)
	}
	l.lastCell = c.Index
	c.Type = "cell"
	return l.emit(c)
}

// Alert writes an SLO watchdog trip record.
func (l *Writer) Alert(a Alert) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.open(); err != nil {
		return err
	}
	if a.Metric == "" || a.Rule == "" {
		return errors.New("runlog: alert without metric/rule")
	}
	a.Type = "alert"
	return l.emit(a)
}

// Exemplar writes one retained worst-cell trace reference. Exemplars are
// written after the last cell, worst first (rank ascending).
func (l *Writer) Exemplar(e Exemplar) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.open(); err != nil {
		return err
	}
	if e.Metric == "" {
		return errors.New("runlog: exemplar without metric")
	}
	e.Type = "exemplar"
	return l.emit(e)
}

// Health writes a health snapshot.
func (l *Writer) Health(h Health) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.open(); err != nil {
		return err
	}
	h.Type = "health"
	return l.emit(h)
}

// Summary writes the closing record; the writer refuses further records.
func (l *Writer) Summary(s Summary) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.open(); err != nil {
		return err
	}
	l.closed = true
	s.Type = "summary"
	return l.emit(s)
}

func (l *Writer) open() error {
	if !l.manifest {
		return errors.New("runlog: record before manifest")
	}
	if l.closed {
		return errors.New("runlog: record after summary")
	}
	return nil
}

// Counts reports what a validated log contained.
type Counts struct {
	Cells, Health int
	CellsOK       int
	CellsFailed   int
	Alerts        int
	Exemplars     int
	HasSummary    bool
	Manifest      Manifest
	Summary       Summary
	// LastCell is the last intact cell record, if any — what
	// ValidateTruncated reports as the crash-time high-water mark.
	LastCell *Cell
	// LastOK is the last intact cell with status "ok" — the last provably
	// healthy unit of work before a crash or interrupt.
	LastOK *Cell
	// TornTail is set by ValidateTruncated when the final line was a torn
	// partial write (the shape a kill mid-append leaves).
	TornTail bool
}

// Validate strictly checks an NDJSON run log: one JSON object per line, a
// schema-compatible manifest first, only known record types with only known
// fields (json.Decoder.DisallowUnknownFields), cell indexes strictly
// increasing, a closing summary whose cell and SLO counts match the log's
// cell and alert records, and nothing after it. Errors name the 1-based
// line.
func Validate(r io.Reader) (Counts, error) { return validate(r, false) }

// ValidateTruncated checks a log the producing process never got to close —
// a crash, a kill -9, or a fleet interrupt (which deliberately leaves the
// same shape, so one reader path serves all three). Two relaxations over
// Validate, both confined to the tail: the closing summary may be missing,
// and the final line may be a torn partial write (Counts.TornTail). A
// malformed line anywhere *before* the tail is still an error — truncation
// damages the end of an append-only log, not the middle. Counts.LastCell
// reports the last intact cell: the run's provable high-water mark.
func ValidateTruncated(r io.Reader) (Counts, error) { return validate(r, true) }

func validate(r io.Reader, truncated bool) (Counts, error) {
	var c Counts
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	lastCell := -1
	done := false
	check := func(raw []byte) error {
		if len(raw) == 0 {
			return fmt.Errorf("runlog: line %d: empty line", line)
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return fmt.Errorf("runlog: line %d: not a JSON object: %v", line, err)
		}
		if done {
			return fmt.Errorf("runlog: line %d: %q record after summary", line, probe.Type)
		}
		if line == 1 && probe.Type != "manifest" {
			return fmt.Errorf("runlog: line 1: first record is %q, want manifest", probe.Type)
		}
		switch probe.Type {
		case "manifest":
			if line != 1 {
				return fmt.Errorf("runlog: line %d: duplicate manifest", line)
			}
			if err := strictjson.Decode(raw, &c.Manifest); err != nil {
				return fmt.Errorf("runlog: line %d: manifest: %v", line, err)
			}
			if c.Manifest.Schema != Schema {
				return fmt.Errorf("runlog: line %d: schema %d, this reader understands %d",
					line, c.Manifest.Schema, Schema)
			}
		case "cell":
			var cell Cell
			if err := strictjson.Decode(raw, &cell); err != nil {
				return fmt.Errorf("runlog: line %d: cell: %v", line, err)
			}
			if cell.Index <= lastCell {
				return fmt.Errorf("runlog: line %d: cell index %d not after %d",
					line, cell.Index, lastCell)
			}
			lastCell = cell.Index
			switch cell.Status {
			case "ok":
				if cell.Error != "" || cell.ErrorClass != "" {
					return fmt.Errorf("runlog: line %d: status ok with error fields", line)
				}
				c.CellsOK++
			case "error":
				if cell.ErrorClass == "" {
					return fmt.Errorf("runlog: line %d: status error without error_class", line)
				}
				c.CellsFailed++
			default:
				return fmt.Errorf("runlog: line %d: unknown cell status %q", line, cell.Status)
			}
			c.Cells++
			c.LastCell = &cell
			if cell.Status == "ok" {
				c.LastOK = &cell
			}
		case "health":
			var h Health
			if err := strictjson.Decode(raw, &h); err != nil {
				return fmt.Errorf("runlog: line %d: health: %v", line, err)
			}
			c.Health++
		case "alert":
			var a Alert
			if err := strictjson.Decode(raw, &a); err != nil {
				return fmt.Errorf("runlog: line %d: alert: %v", line, err)
			}
			if a.Metric == "" || a.Rule == "" {
				return fmt.Errorf("runlog: line %d: alert without metric/rule", line)
			}
			c.Alerts++
		case "exemplar":
			var e Exemplar
			if err := strictjson.Decode(raw, &e); err != nil {
				return fmt.Errorf("runlog: line %d: exemplar: %v", line, err)
			}
			if e.Metric == "" {
				return fmt.Errorf("runlog: line %d: exemplar without metric", line)
			}
			if e.Rank != c.Exemplars {
				return fmt.Errorf("runlog: line %d: exemplar rank %d, want %d (ranks ascend from 0)",
					line, e.Rank, c.Exemplars)
			}
			c.Exemplars++
		case "summary":
			var s Summary
			if err := strictjson.Decode(raw, &s); err != nil {
				return fmt.Errorf("runlog: line %d: summary: %v", line, err)
			}
			if s.Status != "ok" && s.Status != "failed" {
				return fmt.Errorf("runlog: line %d: unknown summary status %q", line, s.Status)
			}
			c.HasSummary = true
			c.Summary = s
			done = true
		default:
			return fmt.Errorf("runlog: line %d: unknown record type %q", line, probe.Type)
		}
		return nil
	}
	// In truncated mode a bad line is stashed rather than returned: it is
	// tolerated only if nothing follows it (i.e. it is the torn tail).
	var torn error
	for sc.Scan() {
		line++
		if torn != nil {
			return c, torn
		}
		if err := check(bytes.TrimSpace(sc.Bytes())); err != nil {
			if !truncated {
				return c, err
			}
			torn = err
		}
	}
	if err := sc.Err(); err != nil {
		return c, fmt.Errorf("runlog: line %d: %v", line+1, err)
	}
	if line == 0 {
		return c, errors.New("runlog: empty log (no manifest)")
	}
	if c.Manifest.Type != "manifest" {
		// Only reachable in truncated mode (a torn sole line); a log whose
		// manifest never landed intact identifies nothing.
		return c, errors.New("runlog: no intact manifest record")
	}
	if torn != nil {
		c.TornTail = true
	}
	if truncated {
		return c, nil
	}
	if !c.HasSummary {
		return c, errors.New("runlog: missing closing summary (crashed or killed run? use runlogcheck -truncated)")
	}
	if s := c.Summary; s.CellsOK != c.CellsOK || s.CellsFailed != c.CellsFailed || s.SLOViolations != c.Alerts {
		return c, fmt.Errorf("runlog: summary says cells_ok=%d cells_failed=%d slo_violations=%d, the log holds %d ok cells, %d failed cells, %d alerts",
			s.CellsOK, s.CellsFailed, s.SLOViolations, c.CellsOK, c.CellsFailed, c.Alerts)
	}
	return c, nil
}
