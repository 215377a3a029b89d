// Command qoesim regenerates the paper's tables and figures from the
// simulation stack.
//
// Usage:
//
//	qoesim -list                     # show available experiments
//	qoesim -run fig3a                # one experiment, quick configuration
//	qoesim -run all                  # every experiment
//	qoesim -run fig6 -full           # paper-scale effort (slow)
//	qoesim -run fig2a -csv           # machine-readable output
//	qoesim -run fig3a -pages 12 -seed 7
//	qoesim -run all -trials 20 -parallel 8   # paper-style replicated trials
//	qoesim -run fig3a -trials 4 -trace out.json  # one combined trace file
//	qoesim -run fig3a -profile -folded out.folded            # profile the run
//	qoesim -run all -checktrace                  # trace invariant check
//	qoesim -report report.md                     # markdown report of every table
//	qoesim -run fig3a -faults default            # built-in mixed fault plan
//	qoesim -run fig3a -faults plan.json -retries 2   # custom plan, cell retries
//	qoesim -scenario sweep.json                  # declarative scenario file
//	qoesim -scenario sweep.json -runlog run.ndjson -slo-exit  # SLO watchdog
//	qoesim -run all -trials 4 -exemplars 3       # keep the 3 worst cells' traces
//	qoesim -run all -telemetry :9090             # live /metrics + /healthz
//	qoesim -fleet fleet.json -checkpoint ckpt/   # sharded population run
//	qoesim -fleet fleet.json -checkpoint ckpt/ -resume   # continue after a kill
//
// Tables go to stdout; progress and timing go to stderr, so table output is
// byte-identical for a given seed regardless of -parallel.
//
// Exit codes: 0 success, 1 failure (cell/shard failures, SLO trip with
// -slo-exit, IO errors), 2 usage, 3 fleet interrupted (checkpointed and
// resumable — see EXPERIMENTS.md "Running a fleet").
//
// Tracing never changes the worker count. Every (experiment, trial) cell
// traces on its own tracer, which the runner hands back as the cell
// completes. -profile, -folded, -checktrace, and -trace read one combined
// trace: the cells' tracers appended in cell order, byte-identical at any
// -parallel. -exemplars composes with all of them. A retried cell traces
// only the attempt it reported.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mobileqoe/cmd/internal/obsflag"
	"mobileqoe/internal/atomicfile"
	"mobileqoe/internal/engine"
	"mobileqoe/internal/experiments"
	"mobileqoe/internal/fault"
	"mobileqoe/internal/profile"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/trace"
)

// splitOut splits an output path at its last dot into stem and extension
// (no dot: extension ".json"), the base the exemplar files are named from.
func splitOut(out string) (stem, ext string) {
	if i := strings.LastIndexByte(out, '.'); i > strings.LastIndexByte(out, '/') {
		return out[:i], out[i:]
	}
	return out, ".json"
}

// writeExemplars writes the top-K worst-cell traces retained by -exemplars
// and their references: one runlog exemplar record per file (ranks ascending,
// before the summary — obs is nil-safe) plus a stderr tail line. Naming:
// <stem>.exemplar.<id>.trial<N><ext> (see splitOut).
func writeExemplars(ex *runner.Exemplars, out string, obs *engine.Observer, stderr io.Writer) int {
	stem, ext := splitOut(out)
	for rank, c := range ex.Kept() {
		path := fmt.Sprintf("%s.exemplar.%s.trial%d%s", stem, c.ID, c.Trial, ext)
		if err := c.Tracer.WriteFile(path); err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
			return 1
		}
		obs.Exemplar(runlog.Exemplar{Rank: rank, Index: c.Index, ID: c.ID, Trial: c.Trial,
			Seed: c.Seed, Metric: ex.Metric(), Value: c.Value, Path: path})
		fmt.Fprintf(stderr, "qoesim: exemplar %d: %s trial %d %s=%g → %s\n",
			rank, c.ID, c.Trial, ex.Metric(), c.Value, path)
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options holds qoesim's parsed flags.
type options struct {
	list, full, csv, profile, check, resume    bool
	report, runID, scenario, fleet, checkpoint string
	faults, folded, weight, cpuProf, memProf   string
	exemOut, exemMetric                        string
	pages, trials, parallel, retries, exemK    int
	shards, stopAfter                          int
	seed                                       uint64
	clip, call, timeout, shardTimeout          time.Duration
	ob                                         *obsflag.Outputs
}

// fleetFlags are the flags -fleet composes with: the spec fixes workloads,
// seeds and fault plans, so any other flag is a usage error. A true value
// marks a flag that means nothing without -fleet.
var fleetFlags = map[string]bool{
	"fleet": false, "parallel": false, "retries": false, "timeout": false,
	"runlog": false, "progress": false, "telemetry": false, "csv": false,
	"cpuprofile": false, "memprofile": false,
	"checkpoint": true, "resume": true, "fleet-shards": true,
	"fleet-stop-after": true, "shard-timeout": true,
}

// run is the whole command: it parses args on its own flag set and returns
// the exit code, so deferred profile writers (pprof) run before the process
// exits and tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qoesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.BoolVar(&o.list, "list", false, "list experiments and exit")
	fs.StringVar(&o.report, "report", "", "write a markdown report of the run's tables to this file (alone: runs every experiment and prints only the path)")
	fs.StringVar(&o.runID, "run", "", "experiment id to run, or 'all'")
	fs.StringVar(&o.scenario, "scenario", "", "run a declarative scenario file (JSON; see EXPERIMENTS.md \"Writing scenario files\")")
	fs.BoolVar(&o.full, "full", false, "paper-scale configuration (slow)")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of an ASCII table")
	fs.IntVar(&o.pages, "pages", 0, "pages per web measurement (default 6)")
	fs.Uint64Var(&o.seed, "seed", 0, "workload seed (default 1; trial t of a multi-trial run uses seed*1e6+t)")
	fs.DurationVar(&o.clip, "clip", 0, "streaming clip duration (default 60s)")
	fs.DurationVar(&o.call, "call", 0, "call media duration (default 30s)")
	fs.IntVar(&o.trials, "trials", 0, "independent trials per experiment (default 1); >1 merges mean/p50/ci95 columns")
	fs.IntVar(&o.parallel, "parallel", 0, "worker goroutines for -run (default GOMAXPROCS)")
	fs.DurationVar(&o.timeout, "timeout", 0, "abort -run after this wall-clock duration (0 = no limit)")
	fs.StringVar(&o.faults, "faults", "", "fault-injection plan: a JSON plan file, 'default' for the built-in mixed plan, or 'none'")
	fs.IntVar(&o.retries, "retries", 0, "extra attempts per failed (experiment, trial) cell")
	fs.BoolVar(&o.profile, "profile", false, "print an aggregated virtual-time profile of the run's combined trace (implies tracing)")
	fs.StringVar(&o.folded, "folded", "", "write folded stacks (flamegraph.pl / speedscope) of the run's combined trace to this file (implies tracing)")
	fs.StringVar(&o.weight, "weight", "time", "folded-stack weight: 'time' (self virtual µs) or 'cycles'")
	fs.BoolVar(&o.check, "checktrace", false, "run the trace invariant checker over the run's combined trace (implies tracing and metrics; violations exit nonzero)")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a Go CPU profile of the qoesim process to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a Go heap profile (taken after the run) to this file")
	fs.IntVar(&o.exemK, "exemplars", 0, "retain full traces for the K worst cells by -exemplar-metric (composes with every trace flag); files named <exemplar-out stem>.exemplar.<id>.trial<N>.json")
	fs.StringVar(&o.exemOut, "exemplar-out", "out.json", "output stem for -exemplars trace files")
	fs.StringVar(&o.exemMetric, "exemplar-metric", "", "registry metric ranking -exemplars cells, worst = largest (default sim.virtual_ms)")
	fs.StringVar(&o.fleet, "fleet", "", "run a fleet spec (JSON; see EXPERIMENTS.md \"Running a fleet\"): a sharded population run with checkpoint/resume")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "fleet checkpoint directory (required with -fleet; shards land here atomically as they complete)")
	fs.BoolVar(&o.resume, "resume", false, "resume an interrupted fleet from -checkpoint (merges byte-identically with an uninterrupted run)")
	fs.IntVar(&o.shards, "fleet-shards", 0, "override the spec's shard count (a fresh run only; resume keeps the original partition)")
	fs.IntVar(&o.stopAfter, "fleet-stop-after", 0, "interrupt the fleet after N freshly-completed shards, exactly like a signal (deterministic kill-mid-run for tests and CI)")
	fs.DurationVar(&o.shardTimeout, "shard-timeout", 0, "per-shard-attempt wall-clock timeout for -fleet (0 = none; timed-out attempts retry per -retries)")
	o.ob = obsflag.Register(fs, "write a Chrome trace-event JSON of the run to this file: the cells' traces appended in cell order")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// A zero passed explicitly on the command line means "really zero", not
	// "use the default"; set records which flags were given. misuse names
	// the first given flag that breaks the fleetFlags rules.
	set := map[string]bool{}
	misuse := ""
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		fleetOnly, ok := fleetFlags[f.Name]
		switch {
		case misuse != "":
		case o.fleet != "" && !ok:
			misuse = fmt.Sprintf("-fleet does not compose with -%s (workloads, seeds and fault plans come from the spec)", f.Name)
		case o.fleet == "" && fleetOnly:
			misuse = fmt.Sprintf("-%s requires -fleet", f.Name)
		}
	})

	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if o.memProf != "" {
		defer func() {
			f, err := os.Create(o.memProf)
			if err != nil {
				fmt.Fprintf(stderr, "qoesim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "qoesim: %v\n", err)
			}
		}()
	}

	if o.list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "%-16s %s\n", id, experiments.Describe(id))
		}
		return 0
	}
	if misuse != "" {
		fmt.Fprintf(stderr, "qoesim: %s\n", misuse)
		return 2
	}
	reportOnly := o.runID == "" && o.scenario == "" && o.fleet == ""
	if reportOnly && o.report == "" {
		fmt.Fprintln(stderr, "qoesim: use -list to see experiments, -run <id> to execute one, -scenario <file>, -fleet <file>, or -report <file>")
		return 2
	}
	var by profile.Weight
	switch o.weight {
	case "time":
		by = profile.WeightTime
	case "cycles":
		by = profile.WeightCycles
	default:
		fmt.Fprintf(stderr, "qoesim: -weight must be 'time' or 'cycles', got %q\n", o.weight)
		return 2
	}

	// Compose the run through the engine layer — the same id resolution,
	// config assembly, seed schedule, and manifest the qoesimd service uses,
	// so CLI and server runs can never drift. Its rule that a request names
	// exactly one of experiment, scenario and fleet is the CLI's too. The CLI
	// then layers its impure extras (tracing, watchdogs, registry printing,
	// fleet checkpoints) onto the plan; that is exactly why this path never
	// touches the engine's result cache.
	req := engine.Request{
		Experiment:   o.runID,
		ScenarioPath: o.scenario,
		FleetPath:    o.fleet,
		Seed:         o.seed,
		Trials:       o.trials,
		Pages:        o.pages,
		Full:         o.full,
		CSV:          o.csv,
	}
	if set["seed"] && o.seed == 0 {
		req.Seed = experiments.ZeroSeed
	}
	if reportOnly {
		req.Experiment = "all" // -report alone reports every experiment
	}
	plan, err := engine.Compose(req, engine.ComposeOptions{AllowLocalFiles: true})
	if err != nil {
		fmt.Fprintf(stderr, "qoesim: %v\n", err)
		return 2
	}
	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	if plan.Kind == "fleet" {
		return runFleet(ctx, &o, plan, stdout, stderr)
	}
	cfg := &plan.Cfg
	if set["clip"] {
		cfg.ClipDuration = orZero(o.clip)
	}
	if set["call"] {
		cfg.CallDuration = orZero(o.call)
	}
	// Compose already turned collection on for a scenario's slo: block.
	o.ob.Configure(cfg)
	if o.faults != "" {
		// -faults wins over a scenario's fault_plan (already loaded by
		// Compose), matching the general rule that flags override the file.
		fp, err := fault.Resolve(o.faults)
		if err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
			return 2
		}
		cfg.Faults = fp
	}
	if o.check {
		// The checker cross-validates the trace against the metrics registry,
		// so it needs both channels on.
		cfg.Metrics = true
	}
	var ex *runner.Exemplars
	if o.exemK > 0 {
		// The ranking metric is mined from each cell's registry.
		cfg.Metrics = true
		ex = runner.NewExemplars(o.exemK, o.exemMetric)
	}

	ids := plan.IDs
	norm := cfg.WithDefaults()
	totalCells := len(ids) * norm.Trials
	workers := o.parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	manifest := plan.Manifest
	manifest.Parallel = workers
	if o.faults != "" {
		manifest.FaultPlan = o.faults
	}
	obs, err := o.ob.RunLog.Start(stderr, "qoesim", totalCells, manifest, plan.SLO())
	if err != nil {
		fmt.Fprintf(stderr, "qoesim: %v\n", err)
		return 1
	}

	// Every cell traces on its own tracer, which the runner hands to
	// Progress. Every trace consumer reads one combined trace, the cells
	// appended in cell order, which is byte-identical at any worker count.
	analyze := o.profile || o.folded != "" || o.check
	var combined *trace.Tracer
	var hooks []func(runner.Event)
	if ex != nil {
		// The exemplar collector observes completion order (bounding memory at
		// K live traces) and still retains a deterministic set.
		hooks = append(hooks, ex.Observe)
	}
	if analyze || o.ob.TraceOut != "" {
		combined = trace.New()
		seq := runner.NewInorder(totalCells, combined.Append)
		hooks = append(hooks, func(ev runner.Event) { seq.Put(ev.Index, ev.Trace) })
	}
	if totalCells > 1 && !o.ob.RunLog.Progress.Enabled() { // the live meter replaces the per-cell lines
		hooks = append(hooks, func(ev runner.Event) {
			status := ""
			if ev.Err != nil {
				status = " error: " + ev.Err.Error()
			}
			fmt.Fprintf(stderr, "qoesim: [%d/%d] %s trial %d seed %d (%v)%s\n",
				ev.Done, ev.Total, ev.ID, ev.Trial, ev.Seed,
				ev.Elapsed.Round(time.Millisecond), status)
		})
	}
	ropts := runner.Options{Parallel: o.parallel, Retries: o.retries,
		Trace: ex != nil || combined != nil}
	if len(hooks) > 0 {
		ropts.Progress = func(ev runner.Event) {
			for _, h := range hooks {
				h(ev)
			}
		}
	}
	if obs != nil {
		ropts.Stream = obs.Stream
	}
	start := time.Now()
	results, err := engine.ExecutePlan(ctx, plan, ropts)
	exit := 0
	if ex != nil {
		if code := writeExemplars(ex, o.exemOut, obs, stderr); code != 0 {
			exit = code
		}
	}
	if o.ob.RunLog.SLOExit && obs.Violations() > 0 {
		exit = 1
	}
	if cerr := obs.Close(err); cerr != nil {
		fmt.Fprintf(stderr, "qoesim: runlog: %v\n", cerr)
		exit = 1
	}
	if err != nil {
		fmt.Fprintf(stderr, "qoesim: %v\n", err)
		return 1
	}
	if o.report != "" {
		if err := writeReport(o.report, results); err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", o.report)
	}
	for i, r := range results {
		// Cells still failed after every retry: report and exit nonzero,
		// but print whatever partial table the surviving trials merged.
		out, err := engine.RenderResults(results[i:i+1], o.csv)
		if err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
			exit = 1
		}
		if reportOnly {
			continue
		}
		stdout.Write(out)
		if o.ob.Metrics && r.Table != nil && r.Table.Metrics != nil {
			// The header names the fold discipline when trials merged, so a
			// reader of a -parallel run knows the registry is the in-order
			// trial fold, not a completion-order one.
			note := ""
			if norm.Trials > 1 {
				note = fmt.Sprintf("merged %d trials in trial order", norm.Trials)
			}
			fmt.Fprint(stdout, r.Table.Metrics.TableTitled(note))
			fmt.Fprintln(stdout)
		}
	}
	if o.ob.TraceOut != "" {
		if err := combined.WriteFile(o.ob.TraceOut); err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "qoesim: wrote %d trace events to %s\n", combined.Len(), o.ob.TraceOut)
	}
	if analyze {
		if code := analyzeTrace(combined, results, o.profile, o.folded, by, o.check, stdout, stderr); code != 0 {
			exit = code
		}
	}
	if totalCells > 1 {
		fmt.Fprintf(stderr, "qoesim: %d experiments × %d trials on %d workers in %v\n",
			len(ids), norm.Trials, workers, time.Since(start).Round(time.Millisecond))
	}
	return exit
}

// orZero maps an explicitly given zero duration to the Config sentinel that
// means "really zero" rather than "use the default".
func orZero(d time.Duration) time.Duration {
	if d == 0 {
		return experiments.ZeroDuration
	}
	return d
}

// analyzeTrace runs the post-run trace consumers: the aggregated profile
// table, the folded-stack export, and the invariant checker (cross-checking
// the trace against every result's metrics registry merged together).
// Returns a nonzero exit code when the checker found violations.
func analyzeTrace(tracer *trace.Tracer, results []runner.Result,
	printProfile bool, foldedPath string, by profile.Weight, check bool, stdout, stderr io.Writer) int {
	events := tracer.Events()
	if printProfile {
		fmt.Fprint(stdout, profile.FromEvents(events).Table(30))
		fmt.Fprintln(stdout)
	}
	if foldedPath != "" {
		f, err := os.Create(foldedPath)
		if err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
			return 1
		}
		err = profile.FromEvents(events).WriteFolded(f, by)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "qoesim: wrote folded stacks to %s\n", foldedPath)
	}
	if check {
		tables := make([]*experiments.Table, len(results))
		for i, r := range results {
			tables[i] = r.Table
		}
		merged := experiments.MergeMetrics(tables)
		if merged == nil {
			merged = trace.NewMetrics()
		}
		violations := profile.Check(events, merged)
		for _, v := range violations {
			fmt.Fprintf(stderr, "qoesim: invariant violation: %s\n", v)
		}
		if len(violations) > 0 {
			fmt.Fprintf(stderr, "qoesim: %d invariant violations\n", len(violations))
			return 1
		}
		fmt.Fprintf(stderr, "qoesim: trace invariants ok (%d events checked)\n", len(events))
	}
	return 0
}

// writeReport renders the run's merged tables as one markdown document —
// the reproduction's self-contained results appendix — and writes it
// atomically.
func writeReport(path string, results []runner.Result) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# mobileqoe results report\n\n")
	fmt.Fprintf(&b, "Generated by `qoesim -report`. Deterministic for a given seed.\n\n")
	for _, r := range results {
		tab := r.Table
		if tab == nil {
			continue
		}
		fmt.Fprintf(&b, "## %s — %s\n\n", tab.ID, tab.Title)
		if desc := experiments.Describe(r.ID); desc != "" {
			fmt.Fprintf(&b, "%s\n\n", desc)
		}
		fmt.Fprintf(&b, "| %s |\n", strings.Join(tab.Columns, " | "))
		seps := make([]string, len(tab.Columns))
		for i := range seps {
			seps[i] = "---"
		}
		fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
		for _, row := range tab.Rows {
			fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
		}
		for _, n := range tab.Notes {
			fmt.Fprintf(&b, "\n> %s", n)
		}
		fmt.Fprint(&b, "\n\n")
	}
	return atomicfile.Write(path, b.Bytes(), 0o644)
}
