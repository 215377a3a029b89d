package obsflag

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"mobileqoe/internal/runlog"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/stats"
	"mobileqoe/internal/telemetry"
	"mobileqoe/internal/trace"
)

// ProgressMode is the tri-state -progress setting.
type ProgressMode int

const (
	// ProgressOff disables the meter (the default).
	ProgressOff ProgressMode = iota
	// ProgressAuto enables it and picks the style from stderr: a terminal
	// gets the \r-redrawn single line, a pipe gets plain newline-terminated
	// lines (same throttle), so piped logs stay grep-able.
	ProgressAuto
	// ProgressForce enables the \r redraw style even when stderr is piped
	// (-progress=force), for terminal multiplexers that stat as pipes.
	ProgressForce
)

// Enabled reports whether the meter draws at all.
func (m ProgressMode) Enabled() bool { return m != ProgressOff }

func (m ProgressMode) String() string {
	switch m {
	case ProgressAuto:
		return "true"
	case ProgressForce:
		return "force"
	default:
		return "false"
	}
}

// progressValue adapts ProgressMode to the flag package. IsBoolFlag makes a
// bare -progress mean auto; -progress=false and -progress=force spell the
// other states.
type progressValue struct{ m *ProgressMode }

func (v progressValue) String() string {
	if v.m == nil {
		return "false"
	}
	return v.m.String()
}

func (v progressValue) Set(s string) error {
	switch s {
	case "", "true":
		*v.m = ProgressAuto
	case "false":
		*v.m = ProgressOff
	case "force":
		*v.m = ProgressForce
	default:
		return fmt.Errorf("want true, false, or force")
	}
	return nil
}

func (v progressValue) IsBoolFlag() bool { return true }

// stderrTTY reports whether stderr is a character device. A var so meter
// tests can pin both answers.
var stderrTTY = func() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// RunLogFlags holds the shared run-observability flags: the structured NDJSON
// run log (-runlog, see internal/runlog), the live stderr meter (-progress),
// the Prometheus exposition sink (-telemetry), and the SLO exit policy
// (-slo-exit). All are observers of the run — enabling any of them never
// changes stdout.
type RunLogFlags struct {
	// Out is the -runlog argument: the NDJSON output path, empty when no
	// log was requested.
	Out string
	// Progress is the -progress argument: draw a live status meter
	// (throughput, ETA, streaming wall-time quantiles) on stderr.
	Progress ProgressMode
	// Telemetry is the -telemetry argument: a snapshot file path or a listen
	// address exposing the run's metrics in Prometheus text format.
	Telemetry string
	// SLOExit is -slo-exit: harnesses exit nonzero when any scenario SLO
	// rule tripped during the run.
	SLOExit bool

	// regSrc supplies the live registry -telemetry renders. Flags.Register
	// points it at the CLI's shared registry; when nil (qoesim, whose cells
	// own private registries), the RunLog folds completed cells into its own
	// aggregate instead.
	regSrc func() *trace.Metrics
}

// RegisterRunLog installs -runlog, -progress, -telemetry, and -slo-exit on
// fs. It is part of Register; qoesim, which owns its flag set, calls it
// directly.
func RegisterRunLog(fs *flag.FlagSet) *RunLogFlags {
	rf := &RunLogFlags{}
	fs.StringVar(&rf.Out, "runlog", "",
		"write an NDJSON run log (manifest, per-cell records, health snapshots) to this file")
	fs.Var(progressValue{&rf.Progress}, "progress",
		"live status meter on stderr: auto-detects terminal (\\r redraw) vs pipe (plain lines); -progress=force forces the redraw style")
	fs.StringVar(&rf.Telemetry, "telemetry", "",
		"expose live run metrics in Prometheus text format v0.0.4: a snapshot file path, or a listen address (e.g. :9090) serving /metrics and /healthz")
	fs.BoolVar(&rf.SLOExit, "slo-exit", false,
		"exit nonzero when any scenario slo: rule tripped during the run")
	return rf
}

// How often the meter redraws and health snapshots land in the log. The
// meter throttle keeps a fast run from melting the terminal; the health
// cadence bounds log growth (a snapshot is ~200 bytes).
const (
	meterEvery  = 100 * time.Millisecond
	healthEvery = time.Second
)

// Start opens the run log and/or progress meter for a run of total cells.
// Returns nil (a valid no-op receiver — every RunLog method is nil-safe)
// when neither flag was given.
//
// The manifest is stamped with tool, the code version, and the start time;
// Flags is filled from the explicitly-set flags of flag.CommandLine when
// the caller left it empty. Everything else — Experiments, Seed,
// SeedSchedule, Trials, Parallel, Scenario — is the caller's knowledge.
func (rf *RunLogFlags) Start(tool string, total int, m runlog.Manifest) (*RunLog, error) {
	if rf == nil || (rf.Out == "" && !rf.Progress.Enabled() && rf.Telemetry == "") {
		return nil, nil
	}
	r := &RunLog{
		tool:   tool,
		total:  total,
		show:   rf.Progress.Enabled(),
		cr:     rf.Progress == ProgressForce || (rf.Progress == ProgressAuto && stderrTTY()),
		meter:  os.Stderr,
		regSrc: rf.regSrc,
		start:  time.Now(),
	}
	if rf.Telemetry != "" {
		sink, err := telemetry.NewSink(rf.Telemetry)
		if err != nil {
			return nil, err
		}
		r.sink = sink
	}
	if rf.Out != "" {
		f, err := os.Create(rf.Out)
		if err != nil {
			return nil, err
		}
		r.file = f
		r.bw = bufio.NewWriter(f)
		r.w = runlog.NewWriter(r.bw)
		m.Stamp(tool, m.Parallel, r.start)
		if m.Flags == nil {
			m.Flags = visitedFlags(flag.CommandLine)
		}
		if err := r.w.Manifest(m); err != nil {
			f.Close()
			r.sink.Close()
			return nil, err
		}
	}
	return r, nil
}

// visitedFlags snapshots every flag explicitly set on the command line.
func visitedFlags(fs *flag.FlagSet) map[string]string {
	m := map[string]string{}
	fs.Visit(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
	if len(m) == 0 {
		return nil
	}
	return m
}

// RunLog drives one run's log records and progress meter. Cell/CellEvent
// must be called in cell order when a log file is attached (the runlog
// writer enforces monotonic indexes) — runner.Options.Stream delivers
// exactly that order. A nil *RunLog is a no-op. Safe for concurrent use.
type RunLog struct {
	mu    sync.Mutex
	tool  string
	total int
	show  bool
	cr    bool      // \r-redraw meter style (terminal or -progress=force)
	meter io.Writer // os.Stderr; swapped by meter tests
	start time.Time

	file *os.File
	bw   *bufio.Writer
	w    *runlog.Writer

	// Telemetry exposition: the sink receives snapshots rendered from either
	// the CLI's shared registry (regSrc) or the internal fold of completed
	// cell registries (agg). Rendering happens under mu on the goroutine that
	// owns the registry — the HTTP sink serves only the pre-rendered bytes.
	sink   *telemetry.Sink
	regSrc func() *trace.Metrics
	agg    *trace.Metrics

	done, ok, failed int
	// restored counts cells replayed from a checkpoint (fleet -resume):
	// they advance done but carry no fresh timing, so the meter's rate/ETA
	// and the wall-time quantiles exclude them — a resumed run's first
	// seconds would otherwise report an absurd cells/s.
	restored int
	alerts   int
	// wall holds the freshly executed cells' wall times; the meter and the
	// health records read p50/p95 from it.
	wall stats.HistSketch

	lastDraw   time.Time
	lastHealth time.Time
	lastTelem  time.Time
	lineLen    int
	err        error // first write error; surfaced by Close
}

// CellEvent records one completed runner cell (see runner.Event.Cell) and,
// when -telemetry exposes the fold of cell registries, folds the cell's
// registry in. Pass it as runner.Options.Stream.
func (r *RunLog) CellEvent(ev runner.Event) {
	if r == nil {
		return
	}
	if r.sink != nil && r.regSrc == nil && ev.Table != nil && ev.Table.Metrics != nil {
		// Stream order is cell order, so the fold — and the exposed
		// quantiles, via exact sketch merges — is deterministic across
		// -parallel.
		m := ev.Table.Metrics
		r.mu.Lock()
		if r.agg == nil {
			r.agg = trace.NewMetricsMode(m.Mode())
		}
		r.agg.Merge(m)
		r.mu.Unlock()
	}
	r.Cell(ev.Cell())
}

// Alert writes one SLO watchdog trip record into the run log (no-op when no
// log file is attached; the -slo-exit decision reads the watchdog, not the
// log).
func (r *RunLog) Alert(a runlog.Alert) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.alerts++
	if r.w != nil {
		if err := r.w.Alert(a); err != nil && r.err == nil {
			r.err = err
		}
	}
}

// Exemplar writes one retained worst-cell trace reference. Call after the
// last cell and before Close, ranks ascending from 0.
func (r *RunLog) Exemplar(e runlog.Exemplar) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.w != nil {
		if err := r.w.Exemplar(e); err != nil && r.err == nil {
			r.err = err
		}
	}
}

// Cell records one completed cell directly — the entry point for CLIs that
// drive workloads without the runner (pageload, iperfsim, regexdsp).
func (r *RunLog) Cell(c runlog.Cell) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done++
	if c.Status == "error" {
		r.failed++
	} else {
		r.ok++
	}
	if c.Restored {
		r.restored++
	} else {
		r.wall.Observe(c.WallMS)
	}
	now := time.Now()
	if r.w != nil {
		if err := r.w.Cell(c); err != nil && r.err == nil {
			r.err = err
		}
		if now.Sub(r.lastHealth) >= healthEvery {
			r.lastHealth = now
			r.writeHealth(now)
		}
	}
	r.draw(now, false)
	if r.sink != nil && now.Sub(r.lastTelem) >= healthEvery {
		r.lastTelem = now
		r.updateTelemetry(now)
	}
}

// updateTelemetry renders and publishes one exposition snapshot: the live
// registry (deterministic families) followed by run health (wall-clock
// families). Caller holds r.mu.
func (r *RunLog) updateTelemetry(now time.Time) {
	reg := r.agg
	if r.regSrc != nil {
		reg = r.regSrc()
	}
	var buf bytes.Buffer
	if reg != nil {
		if err := telemetry.Render(&buf, "", reg); err != nil && r.err == nil {
			r.err = err
		}
	}
	elapsed := now.Sub(r.start)
	telemetry.RenderHealth(&buf, "", telemetry.Health{
		Done: r.done, Total: r.total,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		Runtime:   runlog.CaptureRuntime(),
	})
	if err := r.sink.Update(buf.Bytes()); err != nil && r.err == nil {
		r.err = err
	}
}

// writeHealth emits one snapshot. Caller holds r.mu.
func (r *RunLog) writeHealth(now time.Time) {
	elapsed := now.Sub(r.start)
	h := runlog.Health{
		Done:      r.done,
		Total:     r.total,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		WallP50MS: r.wall.Quantile(0.5),
		WallP95MS: r.wall.Quantile(0.95),
		Runtime:   runlog.CaptureRuntime(),
	}
	// Rate over cells actually executed here: restored cells completed in a
	// previous process, so counting them would inflate the rate and report
	// a near-zero ETA at the start of a resumed run.
	if fresh := r.done - r.restored; elapsed > 0 && fresh > 0 {
		h.CellsPerSec = float64(fresh) / elapsed.Seconds()
		h.ETAMS = float64(r.total-r.done) / h.CellsPerSec * 1000
	}
	if err := r.w.Health(h); err != nil && r.err == nil {
		r.err = err
	}
}

// draw redraws the meter line. Caller holds r.mu.
func (r *RunLog) draw(now time.Time, final bool) {
	if !r.show || (!final && now.Sub(r.lastDraw) < meterEvery) {
		return
	}
	r.lastDraw = now
	elapsed := now.Sub(r.start)
	line := fmt.Sprintf("%s: %d/%d cells ok=%d fail=%d", r.tool, r.done, r.total, r.ok, r.failed)
	if r.restored > 0 {
		line += fmt.Sprintf(" restored=%d", r.restored)
	}
	// Rate/ETA from freshly-executed cells only (see the restored field).
	if fresh := r.done - r.restored; elapsed > 0 && fresh > 0 {
		rate := float64(fresh) / elapsed.Seconds()
		eta := time.Duration(float64(r.total-r.done) / rate * float64(time.Second))
		line += fmt.Sprintf(" | %.1f cells/s eta %v", rate, eta.Round(time.Second))
		line += fmt.Sprintf(" | wall p50 %.0fms p95 %.0fms", r.wall.Quantile(0.5), r.wall.Quantile(0.95))
	}
	if !r.cr {
		// Piped stderr: plain newline-terminated lines under the same
		// throttle, so `cmd 2>log` stays grep-able.
		fmt.Fprintln(r.meter, line)
		return
	}
	pad := ""
	if n := r.lineLen - len(line); n > 0 {
		pad = fmt.Sprintf("%*s", n, "")
	}
	r.lineLen = len(line)
	fmt.Fprintf(r.meter, "\r%s%s", line, pad)
}

// CloseTruncated finishes an *interrupted* run's log without a closing
// summary: a final health snapshot, flush, file close, meter line
// terminated — but the NDJSON deliberately stays in the truncated shape a
// crash leaves, so one reader path (runlog.ValidateTruncated, runlogcheck
// -truncated) serves kills and crashes alike, and no one can mistake a
// partial run's log for a complete one.
func (r *RunLog) CloseTruncated() error { return r.close(false) }

// Close finishes the log — a final health snapshot, the summary record
// (status "ok" unless any cell failed), flush, file close — and terminates
// the meter line. Returns the first error any write hit.
func (r *RunLog) Close() error { return r.close(true) }

func (r *RunLog) close(summary bool) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	r.draw(now, true)
	if r.show && r.cr {
		fmt.Fprintln(r.meter)
	}
	if r.sink != nil {
		r.updateTelemetry(now)
		if err := r.sink.Close(); err != nil && r.err == nil {
			r.err = err
		}
	}
	if r.w == nil {
		return r.err
	}
	r.writeHealth(now)
	if summary {
		status := "ok"
		if r.failed > 0 {
			status = "failed"
		}
		if err := r.w.Summary(runlog.Summary{
			CellsOK:       r.ok,
			CellsFailed:   r.failed,
			WallMS:        float64(now.Sub(r.start)) / float64(time.Millisecond),
			Status:        status,
			SLOViolations: r.alerts,
		}); err != nil && r.err == nil {
			r.err = err
		}
	}
	if err := r.bw.Flush(); err != nil && r.err == nil {
		r.err = err
	}
	if err := r.file.Close(); err != nil && r.err == nil {
		r.err = err
	}
	return r.err
}
