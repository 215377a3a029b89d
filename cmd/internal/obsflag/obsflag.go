// Package obsflag is the shared flag-wiring helper for the simulator CLIs:
// the -trace / -metrics / -faults conventions register, translate to
// options, and flush through one place.
//
// The run-observation flags (-runlog, -progress, -telemetry, -slo-exit)
// only choose sinks: RunLogFlags.Start maps them onto an engine.Observer,
// the one observer qoesim, pageload, iperfsim, regexdsp, and served jobs
// all record their runs through.
//
// qoesim keeps its own trace wiring — its cells trace on private tracers
// that the runner hands back per cell — but shares the -faults resolver and
// the observation flags, and its flag spellings match the ones registered
// here.
package obsflag

import (
	"flag"
	"fmt"
	"io"

	"mobileqoe/internal/core"
	"mobileqoe/internal/fault"
	"mobileqoe/internal/obs"
	"mobileqoe/internal/trace"
)

// Flags holds the parsed observability flags plus the tracer and metrics
// registry they materialize into. Every system built from one Flags value
// shares the same tracer and registry, so a multi-step sweep lands in a
// single trace file and a single table.
type Flags struct {
	// TraceOut is the -trace argument: a Chrome trace-event JSON output
	// path, empty when tracing was not requested.
	TraceOut string
	// Metrics is the -metrics argument: print the run's metrics registry
	// after the results.
	Metrics bool
	// RunLog is the shared -runlog / -progress pair (see RegisterRunLog).
	RunLog *RunLogFlags

	histMode trace.HistMode
	tr       *trace.Tracer
	reg      *trace.Metrics
}

// Register installs the shared -trace and -metrics flags on fs (normally
// flag.CommandLine). traceUsage overrides the -trace help text when the
// binary needs to qualify it (e.g. a sweep writing one combined file); pass
// "" for the standard wording.
func Register(fs *flag.FlagSet, traceUsage string) *Flags {
	if traceUsage == "" {
		traceUsage = "write a Chrome trace-event JSON of the run to this file"
	}
	f := &Flags{}
	fs.StringVar(&f.TraceOut, "trace", "", traceUsage)
	fs.BoolVar(&f.Metrics, "metrics", false, "print the run's metrics registry after the results")
	fs.Func("metricsmode", "histogram mode for -metrics: scalar|bounded (bounded adds p50/p90/p99 columns, within 6.25% of exact, in O(1) memory)",
		func(s string) error {
			m, err := trace.ParseHistMode(s)
			f.histMode = m
			return err
		})
	f.RunLog = RegisterRunLog(fs)
	// -telemetry on the simple CLIs exposes the shared registry live; the
	// observer renders whatever this returns at snapshot time.
	f.RunLog.regSrc = func() *trace.Metrics { return f.reg }
	return f
}

// metricsOn reports whether the run needs a live registry: the user asked for
// the table (-metrics) or for live exposition (-telemetry).
func (f *Flags) metricsOn() bool {
	return f.Metrics || (f.RunLog != nil && f.RunLog.Telemetry != "")
}

// EnableTrace forces the tracer on even when -trace was not given, for
// flags (like pageload's -timeline) that consume the trace in-process
// without writing the file. Call before Options or Ctx.
func (f *Flags) EnableTrace() {
	if f.tr == nil {
		f.tr = trace.New()
	}
}

// Options translates the parsed flags into core options. Call once after
// flag.Parse and hand the result to every core.NewSystem of the run.
func (f *Flags) Options() []core.Option {
	var opts []core.Option
	if f.TraceOut != "" {
		f.EnableTrace()
	}
	if f.tr != nil {
		opts = append(opts, core.WithTrace(f.tr))
	}
	if f.metricsOn() {
		f.ensureRegistry()
		opts = append(opts, core.WithMetrics(f.reg))
	}
	return opts
}

// Ctx materializes the flags as an obs.Ctx for CLIs that drive a subsystem
// directly instead of through core.NewSystem (regexdsp's DSP model). The
// events are attributed to a fresh trace process named process.
func (f *Flags) Ctx(process string) obs.Ctx {
	if f.TraceOut != "" {
		f.EnableTrace()
	}
	if f.metricsOn() {
		f.ensureRegistry()
	}
	oc := obs.Ctx{Trace: f.tr, Metrics: f.reg}
	if f.tr != nil {
		oc.Pid = f.tr.Process(process)
	}
	return oc
}

// Tracer returns the shared tracer, nil when tracing is off.
func (f *Flags) Tracer() *trace.Tracer { return f.tr }

// Registry returns the shared metrics registry, nil when -metrics is off.
func (f *Flags) Registry() *trace.Metrics { return f.reg }

func (f *Flags) ensureRegistry() {
	if f.reg == nil {
		f.reg = trace.NewMetricsMode(f.histMode)
	}
}

// Flush writes whatever the flags asked for: the metrics table to w, then
// the trace file (reporting its event count on w). Callers prefix the
// returned error with their program name.
func (f *Flags) Flush(w io.Writer) error {
	// The table prints only on explicit -metrics: a registry forced into
	// existence by -telemetry is exposition-only and must not change stdout.
	if f.reg != nil && f.Metrics {
		fmt.Fprintf(w, "\n%s", f.reg.Table())
	}
	if f.TraceOut == "" || f.tr == nil {
		return nil
	}
	if err := f.tr.WriteFile(f.TraceOut); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %d trace events to %s\n", f.tr.Len(), f.TraceOut)
	return nil
}

// LoadFaultPlan resolves the shared -faults convention: empty means no
// plan, the literal "default" selects the built-in mixed plan, anything
// else is a JSON plan file.
func LoadFaultPlan(arg string) (*fault.Plan, error) {
	if arg == "" {
		return nil, nil
	}
	if arg == "default" {
		return fault.Default(), nil
	}
	return fault.LoadPlan(arg)
}
