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
//	qoesim -run fig3a -trace out.json            # one combined trace file
//	qoesim -run fig3a -trials 4 -parallel 4 -trace out.json  # per-trial files
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
// -parallel. Plain -trace with an explicit -parallel > 1 instead writes one
// file per cell as it completes: <out>.trial<N>.json for a single experiment,
// <out>.<id>.trial<N>.json when several experiments ran. -exemplars composes
// with all of them. A retried cell traces only the attempt it reported.
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
// (no dot: extension ".json"), the base the per-cell trace files are named
// from.
func splitOut(out string) (stem, ext string) {
	if i := strings.LastIndexByte(out, '.'); i > strings.LastIndexByte(out, '/') {
		return out[:i], out[i:]
	}
	return out, ".json"
}

// cellTracePath names the per-cell trace file of one cell:
// <stem>.trial<N><ext> for a single experiment, <stem>.<id>.trial<N><ext>
// when several ran (see splitOut).
func cellTracePath(out string, multi bool, id string, trial int) string {
	stem, ext := splitOut(out)
	if multi {
		return fmt.Sprintf("%s.%s.trial%d%s", stem, id, trial, ext)
	}
	return fmt.Sprintf("%s.trial%d%s", stem, trial, ext)
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

// run is the whole command: it parses args on its own flag set and returns
// the exit code, so deferred profile writers (pprof) run before the process
// exits and tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qoesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list experiments and exit")
		report   = fs.String("report", "", "write a markdown report of the run's tables to this file (alone: runs every experiment and prints only the path)")
		runID    = fs.String("run", "", "experiment id to run, or 'all'")
		scen     = fs.String("scenario", "", "run a declarative scenario file (JSON; see EXPERIMENTS.md \"Writing scenario files\")")
		full     = fs.Bool("full", false, "paper-scale configuration (slow)")
		csv      = fs.Bool("csv", false, "emit CSV instead of an ASCII table")
		pages    = fs.Int("pages", 0, "pages per web measurement (default 6)")
		seed     = fs.Uint64("seed", 0, "workload seed (default 1; trial t of a multi-trial run uses seed*1e6+t)")
		clip     = fs.Duration("clip", 0, "streaming clip duration (default 60s)")
		call     = fs.Duration("call", 0, "call media duration (default 30s)")
		trials   = fs.Int("trials", 0, "independent trials per experiment (default 1); >1 merges mean/p50/ci95 columns")
		parallel = fs.Int("parallel", 0, "worker goroutines for -run (default GOMAXPROCS)")
		timeout  = fs.Duration("timeout", 0, "abort -run after this wall-clock duration (0 = no limit)")
		faults   = fs.String("faults", "", "fault-injection plan: a JSON plan file, 'default' for the built-in mixed plan, or 'none'")
		retries  = fs.Int("retries", 0, "extra attempts per failed (experiment, trial) cell")
		profOut  = fs.Bool("profile", false, "print an aggregated virtual-time profile of the run's combined trace (implies tracing)")
		folded   = fs.String("folded", "", "write folded stacks (flamegraph.pl / speedscope) of the run's combined trace to this file (implies tracing)")
		weight   = fs.String("weight", "time", "folded-stack weight: 'time' (self virtual µs) or 'cycles'")
		check    = fs.Bool("checktrace", false, "run the trace invariant checker over the run's combined trace (implies tracing and metrics; violations exit nonzero)")
		cpuProf  = fs.String("cpuprofile", "", "write a Go CPU profile of the qoesim process to this file")
		memProf  = fs.String("memprofile", "", "write a Go heap profile (taken after the run) to this file")
		exemK    = fs.Int("exemplars", 0, "retain full traces for the K worst cells by -exemplar-metric (composes with every trace flag); files named <exemplar-out stem>.exemplar.<id>.trial<N>.json")
		exemOut  = fs.String("exemplar-out", "out.json", "output stem for -exemplars trace files")
		exemMet  = fs.String("exemplar-metric", "", "registry metric ranking -exemplars cells, worst = largest (default sim.virtual_ms)")
		flSpec   = fs.String("fleet", "", "run a fleet spec (JSON; see EXPERIMENTS.md \"Running a fleet\"): a sharded population run with checkpoint/resume")
		flCkpt   = fs.String("checkpoint", "", "fleet checkpoint directory (required with -fleet; shards land here atomically as they complete)")
		flResume = fs.Bool("resume", false, "resume an interrupted fleet from -checkpoint (merges byte-identically with an uninterrupted run)")
		flShards = fs.Int("fleet-shards", 0, "override the spec's shard count (a fresh run only; resume keeps the original partition)")
		flStop   = fs.Int("fleet-stop-after", 0, "interrupt the fleet after N freshly-completed shards, exactly like a signal (deterministic kill-mid-run for tests and CI)")
		flShardT = fs.Duration("shard-timeout", 0, "per-shard-attempt wall-clock timeout for -fleet (0 = none; timed-out attempts retry per -retries)")
	)
	ob := obsflag.Register(fs, "write a Chrome trace-event JSON of the run to this file: the cells appended in cell order, or one file per cell with an explicit -parallel > 1 (see package doc)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// A zero passed explicitly on the command line means "really zero", not
	// "use the default"; set records which flags were given.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
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
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
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

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "%-16s %s\n", id, experiments.Describe(id))
		}
		return 0
	}
	if *flSpec != "" {
		if *runID != "" || *scen != "" || *report != "" {
			fmt.Fprintln(stderr, "qoesim: -fleet is mutually exclusive with -run, -scenario, and -report")
			return 2
		}
		if ob.TraceOut != "" || *profOut || *folded != "" || *check || *exemK > 0 || *faults != "" || *trials > 0 {
			fmt.Fprintln(stderr, "qoesim: -fleet composes with -parallel, -retries, -timeout, -shard-timeout, -runlog, -progress, -telemetry, and -csv only (workloads and fault plans come from the spec)")
			return 2
		}
		return runFleet(context.Background(), fleetOpts{
			specPath:     *flSpec,
			checkpoint:   *flCkpt,
			resume:       *flResume,
			shards:       *flShards,
			stopAfter:    *flStop,
			shardTimeout: *flShardT,
			parallel:     *parallel,
			retries:      *retries,
			timeout:      *timeout,
			csv:          *csv,
			rlf:          ob.RunLog,
			stdout:       stdout,
			stderr:       stderr,
		})
	}
	if *flCkpt != "" || *flResume || *flShards > 0 || *flStop > 0 || *flShardT > 0 {
		fmt.Fprintln(stderr, "qoesim: -checkpoint/-resume/-fleet-shards/-fleet-stop-after/-shard-timeout require -fleet")
		return 2
	}
	if *runID == "" && *report == "" && *scen == "" {
		fmt.Fprintln(stderr, "qoesim: use -list to see experiments, -run <id> to execute one, -scenario <file>, -fleet <file>, or -report <file>")
		return 2
	}
	if *runID != "" && *scen != "" {
		fmt.Fprintln(stderr, "qoesim: -run and -scenario are mutually exclusive")
		return 2
	}
	var by profile.Weight
	switch *weight {
	case "time":
		by = profile.WeightTime
	case "cycles":
		by = profile.WeightCycles
	default:
		fmt.Fprintf(stderr, "qoesim: -weight must be 'time' or 'cycles', got %q\n", *weight)
		return 2
	}

	// Compose the run through the engine layer — the same id resolution,
	// config assembly, seed schedule, and manifest the qoesimd service uses,
	// so CLI and server runs can never drift. The CLI then layers its
	// impure extras (tracing, watchdogs, registry printing) onto the plan;
	// that is exactly why this path never touches the engine's result cache.
	req := engine.Request{
		Experiment:   *runID,
		ScenarioPath: *scen,
		Seed:         *seed,
		Trials:       *trials,
		Pages:        *pages,
		Full:         *full,
		CSV:          *csv,
	}
	if set["seed"] && *seed == 0 {
		req.Seed = experiments.ZeroSeed
	}
	reportOnly := *runID == "" && *scen == ""
	if reportOnly {
		req.Experiment = "all" // -report alone reports every experiment
	}
	plan, err := engine.Compose(req, engine.ComposeOptions{AllowLocalFiles: true})
	if err != nil {
		fmt.Fprintf(stderr, "qoesim: %v\n", err)
		return 2
	}
	cfg := &plan.Cfg
	if set["clip"] {
		cfg.ClipDuration = orZero(*clip)
	}
	if set["call"] {
		cfg.CallDuration = orZero(*call)
	}
	// Compose already turned collection on, with bounded histograms, for a
	// scenario's slo: block; an explicit -metricsmode still wins.
	ob.Configure(cfg)
	if *faults != "" {
		// -faults wins over a scenario's fault_plan (already loaded by
		// Compose), matching the general rule that flags override the file.
		fp, err := fault.Resolve(*faults)
		if err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
			return 2
		}
		cfg.Faults = fp
	}
	if *check {
		// The checker cross-validates the trace against the metrics registry,
		// so it needs both channels on.
		cfg.Metrics = true
	}
	var ex *runner.Exemplars
	if *exemK > 0 {
		// The ranking metric is mined from each cell's registry.
		cfg.Metrics = true
		ex = runner.NewExemplars(*exemK, *exemMet)
	}

	ids := plan.IDs
	norm := cfg.WithDefaults()
	totalCells := len(ids) * norm.Trials
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	manifest := plan.Manifest
	manifest.Parallel = workers
	if *faults != "" {
		manifest.FaultPlan = *faults
	}
	obs, err := ob.RunLog.Start("qoesim", totalCells, manifest, plan.SLO())
	if err != nil {
		fmt.Fprintf(stderr, "qoesim: %v\n", err)
		return 1
	}

	// Every cell traces on its own tracer, which the runner hands to
	// Progress. Plain -trace with an explicit -parallel > 1 writes each to
	// its own file as the cell completes; every other trace consumer reads
	// one combined trace, the cells appended in cell order, which is
	// byte-identical at any worker count.
	analyze := *profOut || *folded != "" || *check
	perCell := ob.TraceOut != "" && *parallel > 1 && !analyze
	var combined *trace.Tracer
	var hooks []func(runner.Event)
	if ex != nil {
		// The exemplar collector observes completion order (bounding memory at
		// K live traces) and still retains a deterministic set.
		hooks = append(hooks, ex.Observe)
	}
	if analyze || (ob.TraceOut != "" && !perCell) {
		combined = trace.New()
		seq := runner.NewInorder(totalCells, combined.Append)
		hooks = append(hooks, func(ev runner.Event) { seq.Put(ev.Index, ev.Trace) })
	}
	var traceErr error
	if perCell {
		hooks = append(hooks, func(ev runner.Event) {
			if ev.Trace == nil || traceErr != nil {
				return
			}
			path := cellTracePath(ob.TraceOut, len(ids) > 1, ev.ID, ev.Trial)
			if traceErr = ev.Trace.WriteFile(path); traceErr == nil {
				fmt.Fprintf(stderr, "qoesim: wrote %d trace events to %s\n", ev.Trace.Len(), path)
			}
		})
	}
	if totalCells > 1 && !ob.RunLog.Progress.Enabled() { // the live meter replaces the per-cell lines
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
	ropts := runner.Options{Parallel: *parallel, Retries: *retries,
		Trace: ex != nil || combined != nil || perCell}
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
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	results, err := engine.ExecutePlan(ctx, plan, ropts)
	exit := 0
	if ex != nil {
		if code := writeExemplars(ex, *exemOut, obs, stderr); code != 0 {
			exit = code
		}
	}
	if ob.RunLog.SLOExit && obs.Violations() > 0 {
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
	if *report != "" {
		if err := writeReport(*report, results); err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *report)
	}
	for _, r := range results {
		if r.Err != nil {
			// Cells still failed after every retry: report and exit nonzero,
			// but print whatever partial table the surviving trials merged.
			fmt.Fprintf(stderr, "qoesim: %v\n", r.Err)
			exit = 1
		}
		if r.Table == nil || reportOnly {
			continue
		}
		if *csv {
			fmt.Fprint(stdout, r.Table.CSV())
		} else {
			fmt.Fprint(stdout, r.Table.String())
			fmt.Fprintln(stdout)
		}
		if ob.Metrics && r.Table.Metrics != nil {
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
	if traceErr != nil {
		fmt.Fprintf(stderr, "qoesim: %v\n", traceErr)
		return 1
	}
	if combined != nil && ob.TraceOut != "" {
		if err := combined.WriteFile(ob.TraceOut); err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "qoesim: wrote %d trace events to %s\n", combined.Len(), ob.TraceOut)
	}
	if analyze {
		if code := analyzeTrace(combined, results, *profOut, *folded, by, *check, stdout, stderr); code != 0 {
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
		var merged *trace.Metrics
		for _, r := range results {
			if r.Table != nil && r.Table.Metrics != nil {
				if merged == nil {
					merged = trace.NewMetricsMode(r.Table.Metrics.Mode())
				}
				merged.Merge(r.Table.Metrics)
			}
		}
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
	fmt.Fprintf(&b, "Generated %s by `qoesim -report`. Deterministic for a given seed.\n\n",
		time.Now().UTC().Format(time.RFC3339))
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
