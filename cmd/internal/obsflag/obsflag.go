// Package obsflag registers the observation flags every simulator command
// shares and maps them onto the one observation pipeline.
//
// -trace and -metrics choose what the run collects: the runner gives each
// cell its own tracer (runner.Options.Trace) and registry
// (experiments.Table.Metrics), and the command prints or writes those. The
// run-observation flags (-runlog, -progress, -telemetry, -slo-exit) only
// choose sinks: RunLogFlags.Start maps them onto the engine.Observer whose
// Stream records each cell. qoesim, pageload, regexdsp and served jobs all
// observe their runs this way.
package obsflag

import (
	"flag"
	"fmt"
	"io"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/trace"
)

// Outputs holds the parsed observation flags of one command.
type Outputs struct {
	// TraceOut is the -trace argument: a Chrome trace-event JSON output
	// path, empty when tracing was not requested.
	TraceOut string
	// Metrics is the -metrics argument: print the run's metrics registry
	// after its results.
	Metrics bool
	// RunLog is the -runlog / -progress / -telemetry / -slo-exit set.
	RunLog *RunLogFlags
}

// Register installs -trace, -metrics and the run-observation flags on fs.
// traceUsage is the -trace help text, which each command words for what its
// trace holds.
func Register(fs *flag.FlagSet, traceUsage string) *Outputs {
	o := &Outputs{RunLog: registerRunLog(fs)}
	fs.StringVar(&o.TraceOut, "trace", "", traceUsage)
	fs.BoolVar(&o.Metrics, "metrics", false, "print the run's metrics registry after its results")
	return o
}

// Configure sets the run's metrics collection from the flags. -metrics turns
// it on. -runlog and -telemetry force it on too: a run-log cell takes its
// virtual time and fault counts from the cell's registry, and -telemetry
// exposes the registries folded. Printing still gates on -metrics, so stdout
// does not move.
func (o *Outputs) Configure(cfg *experiments.Config) {
	if o.Metrics || o.RunLog.Out != "" || o.RunLog.Telemetry != "" {
		cfg.Metrics = true
	}
}

// Write prints what -metrics and -trace asked for after a command's results:
// the registry table on w, then the trace file, whose event count it reports
// on w. reg and tr are what the run collected; either may be nil.
func (o *Outputs) Write(w io.Writer, reg *trace.Metrics, tr *trace.Tracer) error {
	if o.Metrics && reg != nil {
		fmt.Fprintf(w, "\n%s", reg.Table())
	}
	if o.TraceOut == "" || tr == nil {
		return nil
	}
	if err := tr.WriteFile(o.TraceOut); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwrote %d trace events to %s\n", tr.Len(), o.TraceOut)
	return nil
}
