package obsflag

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"mobileqoe/internal/engine"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/scenario"
	"mobileqoe/internal/telemetry"
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

	// fs is the flag set registerRunLog installed on, whose explicitly-set
	// flags Start snapshots into the manifest.
	fs *flag.FlagSet
}

// registerRunLog installs -runlog, -progress, -telemetry, and -slo-exit on
// fs, as part of Register.
func registerRunLog(fs *flag.FlagSet) *RunLogFlags {
	rf := &RunLogFlags{fs: fs}
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

// Start maps the flags onto the sinks of one engine.Observer for a run of
// total cells: the -runlog file, the -progress meter style, and the
// -telemetry target. slo is the scenario's slo: block (nil for none); its
// alert lines go to stderr even without a log. Returns nil (a valid no-op
// receiver — every Observer method is nil-safe) when no flag was given and
// there is no slo: block.
//
// Flags is filled from the explicitly-set flags of the flag set Register
// installed on when the caller left it empty. Everything else in the
// manifest — Experiments, Seed, SeedSchedule, Trials, Parallel, Scenario —
// is the caller's knowledge; the observer stamps tool, code version, and
// start time.
func (rf *RunLogFlags) Start(tool string, total int, m runlog.Manifest, slo map[string]scenario.Rule) (*engine.Observer, error) {
	if rf == nil || (rf.Out == "" && !rf.Progress.Enabled() && rf.Telemetry == "" && len(slo) == 0) {
		return nil, nil
	}
	s := engine.Sinks{Stderr: os.Stderr}
	if rf.Progress.Enabled() {
		s.Meter = os.Stderr
		s.Redraw = rf.Progress == ProgressForce || stderrTTY()
	}
	if rf.Telemetry != "" {
		sink, err := telemetry.NewSink(rf.Telemetry)
		if err != nil {
			return nil, err
		}
		s.Telemetry = sink
	}
	if rf.Out != "" {
		f, err := os.Create(rf.Out)
		if err != nil {
			s.Telemetry.Close()
			return nil, err
		}
		s.Log = logFile{bufio.NewWriter(f), f}
		if m.Flags == nil && rf.fs != nil {
			m.Flags = visitedFlags(rf.fs)
		}
	}
	return engine.NewObserver(tool, total, m, slo, s)
}

// logFile buffers the run log; Close flushes it and closes the file.
type logFile struct {
	*bufio.Writer
	f *os.File
}

func (l logFile) Close() error {
	err := l.Flush()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
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
