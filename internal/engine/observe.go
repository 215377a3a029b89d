package engine

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"mobileqoe/internal/runlog"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/scenario"
	"mobileqoe/internal/stats"
	"mobileqoe/internal/telemetry"
	"mobileqoe/internal/trace"
)

// How often the meter redraws and health snapshots land in the log. The
// meter throttle keeps a fast run from melting the terminal; the health
// cadence bounds log growth (a snapshot is ~200 bytes).
const (
	meterEvery  = 100 * time.Millisecond
	healthEvery = time.Second
)

// Sinks are where an Observer's output goes. The zero value observes (the
// counts and the SLO watchdog still run) but writes nothing.
type Sinks struct {
	// Log receives the NDJSON run log (internal/runlog); nil writes none.
	// The observer closes it after the last record.
	Log io.WriteCloser
	// Stderr receives the SLO alert lines; nil drops them.
	Stderr io.Writer
	// Meter receives the live progress meter; nil draws none. Redraw
	// selects the terminal style (one \r-redrawn line) over plain
	// newline-terminated lines under the same throttle.
	Meter  io.Writer
	Redraw bool
	// Telemetry receives Prometheus exposition snapshots of the streamed
	// cells' registries, folded in cell order; nil publishes none. The
	// observer closes it.
	Telemetry *telemetry.Sink
}

// Observer is the one observation pipeline every run goes through: qoesim
// runs and fleets, pageload and regexdsp, and served jobs. It owns the run
// log's manifest stamp and its cell, health, alert, exemplar and summary
// records; the ok/failed/restored counts the summary reports; the progress
// meter; the telemetry fold; and the scenario's SLO watchdog. The summary's
// counts come from the cells it recorded, so a log can never disagree with
// itself.
//
// Pass Stream as runner.Options.Stream: it delivers cells in cell order,
// which gives the log its monotonic indexes and the watchdog reproducible
// alerts. Fleets, which run shards rather than runner cells, call Cell.
// A nil *Observer is a no-op. Safe for concurrent use.
type Observer struct {
	mu    sync.Mutex
	tool  string
	total int
	start time.Time

	log    *runlog.Writer
	closer io.Closer
	stderr io.Writer
	meter  io.Writer
	redraw bool

	// Telemetry exposition: the sink receives snapshots rendered from the
	// fold of streamed cell registries (agg). Rendering happens under mu —
	// the HTTP sink serves only the pre-rendered bytes.
	sink *telemetry.Sink
	agg  *trace.Metrics

	wd *scenario.Watchdog

	done, ok, failed int
	// restored counts cells replayed from a checkpoint (fleet -resume): they
	// advance done but carry no fresh timing, so the meter's rate/ETA and
	// the wall-time quantiles exclude them — a resumed run's first seconds
	// would otherwise report an absurd cells/s.
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

// NewObserver starts observing a run of total cells by tool. It stamps the
// manifest (see runlog.Manifest.Stamp) and writes it to s.Log, and arms a
// watchdog for slo, the scenario's slo: block (nil for none). The observer
// owns the sinks from here on: on error they are already closed.
func NewObserver(tool string, total int, m runlog.Manifest, slo map[string]scenario.Rule, s Sinks) (*Observer, error) {
	o := &Observer{
		tool: tool, total: total, start: time.Now(),
		stderr: s.Stderr, meter: s.Meter, redraw: s.Redraw,
		sink: s.Telemetry,
		wd:   scenario.NewWatchdog(slo),
	}
	if s.Log != nil {
		o.log, o.closer = runlog.NewWriter(s.Log), s.Log
		m.Stamp(tool, o.start)
		if err := o.log.Manifest(m); err != nil {
			s.Log.Close()
			o.sink.Close()
			return nil, err
		}
	}
	return o, nil
}

// Stream records one completed runner cell (see runner.Event.Cell), folds
// its registry into the telemetry aggregate, and feeds it to the SLO
// watchdog, writing any alert after the cell record it references. Pass it
// as runner.Options.Stream.
func (o *Observer) Stream(ev runner.Event) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.sink != nil && ev.Table != nil && ev.Table.Metrics != nil {
		// Stream order is cell order, so the fold — and the exposed
		// quantiles, via exact sketch merges — is deterministic across
		// -parallel.
		m := ev.Table.Metrics
		if o.agg == nil {
			o.agg = trace.NewMetrics()
		}
		o.agg.Merge(m)
	}
	o.cellLocked(ev.Cell())
	if ev.Err != nil || ev.Table == nil || ev.Table.Metrics == nil {
		return
	}
	for _, a := range o.wd.ObserveCell(ev.Index, ev.ID, ev.Trial, ev.Table.Metrics) {
		o.alerts++
		if o.log != nil {
			o.keep(o.log.Alert(a))
		}
		if o.stderr != nil {
			fmt.Fprintf(o.stderr, "%s: slo alert: %s %s threshold %g observed %g (cell %s trial %d, n=%d)\n",
				o.tool, a.Metric, a.Rule, a.Threshold, a.Value, a.CellID, a.Trial, a.N)
		}
	}
}

// Cell records one completed cell directly — the entry point for fleets
// (engine.RunFleet's cell callback), which run shards rather than runner
// cells.
func (o *Observer) Cell(c runlog.Cell) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cellLocked(c)
}

func (o *Observer) cellLocked(c runlog.Cell) {
	o.done++
	if c.Status == "error" {
		o.failed++
	} else {
		o.ok++
	}
	if c.Restored {
		o.restored++
	} else {
		o.wall.Observe(c.WallMS)
	}
	now := time.Now()
	if o.log != nil {
		o.keep(o.log.Cell(c))
		if now.Sub(o.lastHealth) >= healthEvery {
			o.lastHealth = now
			o.writeHealth(now)
		}
	}
	o.draw(now, false)
	if o.sink != nil && now.Sub(o.lastTelem) >= healthEvery {
		o.lastTelem = now
		o.updateTelemetry(now)
	}
}

// Exemplar writes one retained worst-cell trace reference. Call after the
// last cell and before Close, ranks ascending from 0.
func (o *Observer) Exemplar(e runlog.Exemplar) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.log != nil {
		o.keep(o.log.Exemplar(e))
	}
}

// Violations counts the distinct SLO (metric, rule) pairs that tripped —
// the summary's slo_violations and the -slo-exit decision.
func (o *Observer) Violations() int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.alerts
}

// keep records the first write error. Caller holds o.mu.
func (o *Observer) keep(err error) {
	if err != nil && o.err == nil {
		o.err = err
	}
}

// updateTelemetry renders and publishes one exposition snapshot: the folded
// registry, whose families depend only on flags and seed, followed by run
// health, whose families (progress, cell wall-time quantiles, Go runtime)
// are host timing. Caller holds o.mu.
func (o *Observer) updateTelemetry(now time.Time) {
	var buf bytes.Buffer
	if o.agg != nil {
		o.keep(telemetry.Render(&buf, o.agg))
	}
	telemetry.RenderCells(&buf, o.done, o.total)
	telemetry.RenderHealth(&buf, telemetry.Health{
		ElapsedMS: float64(now.Sub(o.start)) / float64(time.Millisecond),
		Wall:      &o.wall,
		Runtime:   runlog.CaptureRuntime(),
	})
	o.keep(o.sink.Update(buf.Bytes()))
}

// writeHealth emits one snapshot. Caller holds o.mu.
func (o *Observer) writeHealth(now time.Time) {
	elapsed := now.Sub(o.start)
	h := runlog.Health{
		Done:      o.done,
		Total:     o.total,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		WallP50MS: o.wall.Quantile(0.5),
		WallP95MS: o.wall.Quantile(0.95),
		Runtime:   runlog.CaptureRuntime(),
	}
	if rate, etaS, ok := o.rate(elapsed); ok {
		h.CellsPerSec = rate
		h.ETAMS = etaS * 1000
	}
	o.keep(o.log.Health(h))
}

// rate returns the cells/s and the ETA in seconds over the cells executed in
// this process: restored cells completed in a previous process, so counting
// them would inflate the rate and report a near-zero ETA at the start of a
// resumed run. ok is false until a fresh cell completed. Caller holds o.mu.
func (o *Observer) rate(elapsed time.Duration) (perSec, etaS float64, ok bool) {
	fresh := o.done - o.restored
	if elapsed <= 0 || fresh <= 0 {
		return 0, 0, false
	}
	perSec = float64(fresh) / elapsed.Seconds()
	return perSec, float64(o.total-o.done) / perSec, true
}

// draw redraws the meter line. Caller holds o.mu.
func (o *Observer) draw(now time.Time, final bool) {
	if o.meter == nil || (!final && now.Sub(o.lastDraw) < meterEvery) {
		return
	}
	o.lastDraw = now
	elapsed := now.Sub(o.start)
	line := fmt.Sprintf("%s: %d/%d cells ok=%d fail=%d", o.tool, o.done, o.total, o.ok, o.failed)
	if o.restored > 0 {
		line += fmt.Sprintf(" restored=%d", o.restored)
	}
	if rate, etaS, ok := o.rate(elapsed); ok {
		eta := time.Duration(etaS * float64(time.Second))
		line += fmt.Sprintf(" | %.1f cells/s eta %v", rate, eta.Round(time.Second))
		line += fmt.Sprintf(" | wall p50 %.0fms p95 %.0fms", o.wall.Quantile(0.5), o.wall.Quantile(0.95))
	}
	if !o.redraw {
		// Piped stderr: plain newline-terminated lines under the same
		// throttle, so `cmd 2>log` stays grep-able.
		fmt.Fprintln(o.meter, line)
		return
	}
	pad := ""
	if n := o.lineLen - len(line); n > 0 {
		pad = fmt.Sprintf("%*s", n, "")
	}
	o.lineLen = len(line)
	fmt.Fprintf(o.meter, "\r%s%s", line, pad)
}

// Close finishes the run: the SLO verdict line, the final meter line and
// telemetry snapshot, a final health record, and the summary — status
// "failed" when runErr is non-nil or any cell failed — then closes the
// sinks. Returns the first error any write hit.
func (o *Observer) Close(runErr error) error { return o.close(true, runErr) }

// CloseTruncated finishes an *interrupted* run like Close but without the
// summary record: the log deliberately stays in the truncated shape a crash
// leaves, so one reader path (runlog.ValidateTruncated, runlogcheck
// -truncated) serves kills and crashes alike, and no one can mistake a
// partial run's log for a complete one.
func (o *Observer) CloseTruncated() error { return o.close(false, nil) }

func (o *Observer) close(summary bool, runErr error) error {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.alerts > 0 && o.stderr != nil {
		fmt.Fprintf(o.stderr, "%s: slo: %d rule(s) violated\n", o.tool, o.alerts)
	}
	now := time.Now()
	o.draw(now, true)
	if o.meter != nil && o.redraw {
		fmt.Fprintln(o.meter)
	}
	if o.sink != nil {
		o.updateTelemetry(now)
		o.keep(o.sink.Close())
	}
	if o.log == nil {
		return o.err
	}
	o.writeHealth(now)
	if summary {
		status := "ok"
		if runErr != nil || o.failed > 0 {
			status = "failed"
		}
		o.keep(o.log.Summary(runlog.Summary{
			CellsOK:       o.ok,
			CellsFailed:   o.failed,
			WallMS:        float64(now.Sub(o.start)) / float64(time.Millisecond),
			Status:        status,
			SLOViolations: o.alerts,
		}))
	}
	o.keep(o.closer.Close())
	return o.err
}
