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
// Tracing and -parallel compose as follows: with -parallel 1 (the default
// once -trace is given) the whole run shares one tracer and -trace writes a
// single combined file. With an explicit -parallel > 1 every (experiment,
// trial) cell gets its own tracer, and -trace <out>.json writes one file per
// cell: <out>.trial<N>.json for a single experiment, <out>.<id>.trial<N>.json
// when several experiments ran. Per-cell traces are byte-identical to a
// sequential run's, because each cell owns its tracer.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"mobileqoe/cmd/internal/obsflag"
	"mobileqoe/internal/engine"
	"mobileqoe/internal/experiments"
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

// traceSink hands a fresh tracer to every (experiment, trial) cell, so a
// parallel run's per-trial traces match a sequential run's byte for byte.
type traceSink struct {
	mu      sync.Mutex
	tracers map[string]map[int]*trace.Tracer
}

func newTraceSink() *traceSink {
	return &traceSink{tracers: map[string]map[int]*trace.Tracer{}}
}

func (s *traceSink) factory(id string, trial int) *trace.Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := trace.New()
	if s.tracers[id] == nil {
		s.tracers[id] = map[int]*trace.Tracer{}
	}
	s.tracers[id][trial] = tr
	return tr
}

// writeAll writes one file per cell. Naming: <stem>.trial<N><ext> for a
// single experiment, <stem>.<id>.trial<N><ext> when several ran (see
// splitOut).
func (s *traceSink) writeAll(out string, ids []string, trials int) error {
	stem, ext := splitOut(out)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		for t := 0; t < trials; t++ {
			tr := s.tracers[id][t]
			if tr == nil {
				continue // cell failed or was never scheduled
			}
			path := fmt.Sprintf("%s.trial%d%s", stem, t, ext)
			if len(ids) > 1 {
				path = fmt.Sprintf("%s.%s.trial%d%s", stem, id, t, ext)
			}
			if err := tr.WriteFile(path); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "qoesim: wrote %d trace events to %s\n", tr.Len(), path)
		}
	}
	return nil
}

// writeExemplars writes the top-K worst-cell traces retained by -exemplars
// and their references: one runlog exemplar record per file (ranks ascending,
// before the summary — obs is nil-safe) plus a stderr tail line. Naming:
// <stem>.exemplar.<id>.trial<N><ext> (see splitOut).
func writeExemplars(ex *runner.Exemplars, out string, obs *engine.Observer) int {
	stem, ext := splitOut(out)
	for rank, c := range ex.Kept() {
		path := fmt.Sprintf("%s.exemplar.%s.trial%d%s", stem, c.ID, c.Trial, ext)
		if err := c.Tracer.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "qoesim: %v\n", err)
			return 1
		}
		obs.Exemplar(runlog.Exemplar{Rank: rank, Index: c.Index, ID: c.ID, Trial: c.Trial,
			Seed: c.Seed, Metric: ex.Metric(), Value: c.Value, Path: path})
		fmt.Fprintf(os.Stderr, "qoesim: exemplar %d: %s trial %d %s=%g → %s\n",
			rank, c.ID, c.Trial, ex.Metric(), c.Value, path)
	}
	return 0
}

// main defers to realMain so deferred profile writers (pprof) run before the
// process exits.
func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		report   = flag.String("report", "", "run everything and write a markdown report to this file")
		run      = flag.String("run", "", "experiment id to run, or 'all'")
		scen     = flag.String("scenario", "", "run a declarative scenario file (JSON; see EXPERIMENTS.md \"Writing scenario files\")")
		full     = flag.Bool("full", false, "paper-scale configuration (slow)")
		csv      = flag.Bool("csv", false, "emit CSV instead of an ASCII table")
		pages    = flag.Int("pages", 0, "pages per web measurement (default 6)")
		seed     = flag.Uint64("seed", 0, "workload seed (default 1; trial t of a multi-trial run uses seed*1e6+t)")
		clip     = flag.Duration("clip", 0, "streaming clip duration (default 60s)")
		call     = flag.Duration("call", 0, "call media duration (default 30s)")
		trials   = flag.Int("trials", 0, "independent trials per experiment (default 1); >1 merges mean/p50/ci95 columns")
		parallel = flag.Int("parallel", 0, "worker goroutines for -run (default GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 0, "abort -run after this wall-clock duration (0 = no limit)")
		faults   = flag.String("faults", "", "fault-injection plan: a JSON plan file, or 'default' for the built-in mixed plan")
		retries  = flag.Int("retries", 0, "extra attempts per failed (experiment, trial) cell")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (per-trial files when -parallel > 1; see package doc)")
		metrics  = flag.Bool("metrics", false, "print the run's metrics registry after each table")
		histMode trace.HistMode
		profOut  = flag.Bool("profile", false, "print an aggregated virtual-time profile of the traced run (implies tracing; forces -parallel 1)")
		folded   = flag.String("folded", "", "write folded stacks (flamegraph.pl / speedscope) of the traced run to this file (implies tracing; forces -parallel 1)")
		weight   = flag.String("weight", "time", "folded-stack weight: 'time' (self virtual µs) or 'cycles'")
		check    = flag.Bool("checktrace", false, "run the trace invariant checker over the run (implies tracing and metrics; forces -parallel 1; violations exit nonzero)")
		cpuProf  = flag.String("cpuprofile", "", "write a Go CPU profile of the qoesim process to this file")
		memProf  = flag.String("memprofile", "", "write a Go heap profile (taken after the run) to this file")
		exemK    = flag.Int("exemplars", 0, "retain full traces for the K worst cells by -exemplar-metric; files named <exemplar-out stem>.exemplar.<id>.trial<N>.json")
		exemOut  = flag.String("exemplar-out", "out.json", "output stem for -exemplars trace files")
		exemMet  = flag.String("exemplar-metric", "", "registry metric ranking -exemplars cells, worst = largest (default sim.virtual_ms)")
		flSpec   = flag.String("fleet", "", "run a fleet spec (JSON; see EXPERIMENTS.md \"Running a fleet\"): a sharded population run with checkpoint/resume")
		flCkpt   = flag.String("checkpoint", "", "fleet checkpoint directory (required with -fleet; shards land here atomically as they complete)")
		flResume = flag.Bool("resume", false, "resume an interrupted fleet from -checkpoint (merges byte-identically with an uninterrupted run)")
		flShards = flag.Int("fleet-shards", 0, "override the spec's shard count (a fresh run only; resume keeps the original partition)")
		flStop   = flag.Int("fleet-stop-after", 0, "interrupt the fleet after N freshly-completed shards, exactly like a signal (deterministic kill-mid-run for tests and CI)")
		flShardT = flag.Duration("shard-timeout", 0, "per-shard-attempt wall-clock timeout for -fleet (0 = none; timed-out attempts retry per -retries)")
		modeSet  bool
	)
	flag.Func("metricsmode",
		"histogram mode for -metrics: scalar|bounded (bounded adds p50/p90/p99 columns, within 6.25% of exact, in O(1) memory)",
		func(s string) error {
			m, err := trace.ParseHistMode(s)
			histMode = m
			modeSet = true
			return err
		})
	rlf := obsflag.RegisterRunLog(flag.CommandLine)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qoesim: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "qoesim: %v\n", err)
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "qoesim: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "qoesim: %v\n", err)
			}
		}()
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-16s %s\n", id, experiments.Describe(id))
		}
		return 0
	}
	if *flSpec != "" {
		if *run != "" || *scen != "" || *report != "" {
			fmt.Fprintln(os.Stderr, "qoesim: -fleet is mutually exclusive with -run, -scenario, and -report")
			return 2
		}
		if *traceOut != "" || *profOut || *folded != "" || *check || *exemK > 0 || *faults != "" || *trials > 0 {
			fmt.Fprintln(os.Stderr, "qoesim: -fleet composes with -parallel, -retries, -timeout, -shard-timeout, -runlog, -progress, -telemetry, and -csv only (workloads and fault plans come from the spec)")
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
			rlf:          rlf,
			stdout:       os.Stdout,
			stderr:       os.Stderr,
		})
	}
	if *flCkpt != "" || *flResume || *flShards > 0 || *flStop > 0 || *flShardT > 0 {
		fmt.Fprintln(os.Stderr, "qoesim: -checkpoint/-resume/-fleet-shards/-fleet-stop-after/-shard-timeout require -fleet")
		return 2
	}
	if *run == "" && *report == "" && *scen == "" {
		fmt.Fprintln(os.Stderr, "qoesim: use -list to see experiments, -run <id> to execute one, -scenario <file>, -fleet <file>, or -report <file>")
		return 2
	}
	if *run != "" && *scen != "" {
		fmt.Fprintln(os.Stderr, "qoesim: -run and -scenario are mutually exclusive")
		return 2
	}
	var by profile.Weight
	switch *weight {
	case "time":
		by = profile.WeightTime
	case "cycles":
		by = profile.WeightCycles
	default:
		fmt.Fprintf(os.Stderr, "qoesim: -weight must be 'time' or 'cycles', got %q\n", *weight)
		return 2
	}

	// Compose the run through the engine layer — the same id resolution,
	// config assembly, seed schedule, and manifest the qoesimd service uses,
	// so CLI and server runs can never drift. The CLI then layers its
	// impure extras (tracing, watchdogs, registry printing) onto the plan;
	// that is exactly why this path never touches the engine's result cache.
	req := engine.Request{
		Experiment:   *run,
		ScenarioPath: *scen,
		Seed:         *seed,
		Trials:       *trials,
		Pages:        *pages,
		Full:         *full,
		CSV:          *csv,
	}
	if *report != "" && *run == "" && *scen == "" {
		req.Experiment = "all" // -report alone still needs a composed config
	}
	plan, err := engine.Compose(req, engine.ComposeOptions{AllowLocalFiles: true})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoesim: %v\n", err)
		return 2
	}
	cfg := &plan.Cfg
	if *clip != 0 {
		cfg.ClipDuration = *clip
	}
	if *call != 0 {
		cfg.CallDuration = *call
	}
	// Compose already turned collection on, with bounded histograms, for a
	// scenario's slo: block; an explicit -metricsmode still wins.
	if *metrics {
		cfg.Metrics = true
	}
	if modeSet {
		cfg.MetricsMode = histMode
	}
	if rlf.Out != "" || rlf.Telemetry != "" {
		// A run log mines per-cell registries for the deterministic fields
		// (virtual time, fault counts), and -telemetry folds them into the
		// exposed aggregate, so collection must be on; printing is still
		// gated on -metrics, so stdout is unchanged.
		cfg.Metrics = true
	}
	if *faults != "" {
		// -faults wins over a scenario's fault_plan (already loaded by
		// Compose), matching the general rule that flags override the file.
		fp, err := obsflag.LoadFaultPlan(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qoesim: %v\n", err)
			return 2
		}
		cfg.Faults = fp
	}
	if *check {
		// The checker cross-validates the trace against the metrics registry,
		// so it needs both channels on.
		cfg.Metrics = true
	}

	// Trace wiring. Analysis flags (-profile/-folded/-checktrace) consume the
	// whole run as one trace, so they run the cells sequentially on a shared
	// tracer; plain -trace does too unless the user explicitly asked for
	// -parallel > 1, in which case each cell gets its own tracer and its own
	// output file (see traceSink.writeAll for the naming scheme).
	analyze := *profOut || *folded != "" || *check
	var tracer *trace.Tracer
	var sink *traceSink
	switch {
	case analyze:
		if *parallel > 1 {
			fmt.Fprintln(os.Stderr, "qoesim: -profile/-folded/-checktrace force -parallel 1 for one combined deterministic trace")
		}
		*parallel = 1
		tracer = trace.New()
		cfg.Trace = tracer
	case *traceOut != "" && *parallel > 1:
		sink = newTraceSink()
		cfg.TraceFactory = sink.factory
	case *traceOut != "":
		// Concurrent cells interleave span emission nondeterministically;
		// one combined byte-identical trace needs the cells run one at a time.
		*parallel = 1
		tracer = trace.New()
		cfg.Trace = tracer
	}
	var ex *runner.Exemplars
	if *exemK > 0 {
		if tracer != nil {
			fmt.Fprintln(os.Stderr, "qoesim: -exemplars needs per-cell tracers; it cannot combine with -profile/-folded/-checktrace or single-file -trace (use -trace with an explicit -parallel > 1)")
			return 2
		}
		// The ranking metric is mined from each cell's registry.
		cfg.Metrics = true
		var inner func(string, int) *trace.Tracer
		if sink != nil {
			inner = sink.factory // -trace -parallel>1 composes: shared tracers, both planes
		}
		ex = runner.NewExemplars(*exemK, *exemMet, inner)
		cfg.TraceFactory = ex.Factory
	}
	// A zero passed explicitly on the command line means "really zero", not
	// "use the default"; map those flags to the Config sentinels.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			if *seed == 0 {
				*cfg = cfg.WithSeed(0)
			}
		case "clip":
			if *clip == 0 {
				cfg.ClipDuration = experiments.ZeroDuration
			}
		case "call":
			if *call == 0 {
				cfg.CallDuration = experiments.ZeroDuration
			}
		}
	})

	if *report != "" {
		if err := writeReport(*report, *cfg); err != nil {
			fmt.Fprintf(os.Stderr, "qoesim: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *report)
		if *run == "" && *scen == "" {
			return 0
		}
	}

	ids := plan.IDs
	norm := cfg.WithDefaults()
	totalCells := len(ids) * norm.Trials
	var progress func(runner.Event)
	if totalCells > 1 {
		progress = func(ev runner.Event) {
			status := ""
			if ev.Err != nil {
				status = " error: " + ev.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "qoesim: [%d/%d] %s trial %d seed %d (%v)%s\n",
				ev.Done, ev.Total, ev.ID, ev.Trial, ev.Seed,
				ev.Elapsed.Round(time.Millisecond), status)
		}
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The composed manifest carries ids, seed schedule, and the scenario
	// fingerprint; re-stamp seed/trials because the post-compose sentinel
	// flags (-seed 0, explicit zeros) may have changed the normalized view.
	manifest := plan.Manifest
	manifest.Seed = norm.Seed
	manifest.Trials = norm.Trials
	manifest.Parallel = workers
	if *faults != "" {
		manifest.FaultPlan = *faults
	}
	obs, err := rlf.Start("qoesim", totalCells, manifest, plan.SLO())
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoesim: %v\n", err)
		return 1
	}
	if rlf.Progress.Enabled() {
		progress = nil // the live meter replaces the per-cell lines
	}
	if ex != nil {
		// The exemplar collector observes completion order (bounding memory at
		// K live traces) and still retains a deterministic set.
		inner := progress
		progress = func(ev runner.Event) {
			ex.Observe(ev)
			if inner != nil {
				inner(ev)
			}
		}
	}
	ropts := runner.Options{Parallel: *parallel, Timeout: *timeout, Retries: *retries,
		Progress: progress}
	if obs != nil {
		ropts.Stream = obs.Stream
	}
	start := time.Now()
	results, err := engine.ExecutePlan(context.Background(), plan, ropts)
	exit := 0
	if ex != nil {
		if code := writeExemplars(ex, *exemOut, obs); code != 0 {
			exit = code
		}
	}
	if rlf.SLOExit && obs.Violations() > 0 {
		exit = 1
	}
	if cerr := obs.Close(err); cerr != nil {
		fmt.Fprintf(os.Stderr, "qoesim: runlog: %v\n", cerr)
		exit = 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoesim: %v\n", err)
		return 1
	}
	for _, r := range results {
		if r.Err != nil {
			// Cells still failed after every retry: report and exit nonzero,
			// but print whatever partial table the surviving trials merged.
			fmt.Fprintf(os.Stderr, "qoesim: %v\n", r.Err)
			exit = 1
		}
		if r.Table == nil {
			continue
		}
		if *csv {
			fmt.Print(r.Table.CSV())
		} else {
			fmt.Print(r.Table.String())
			fmt.Println()
		}
		if *metrics && r.Table.Metrics != nil {
			// The header names the fold discipline when trials merged, so a
			// reader of a -parallel run knows the registry is the in-order
			// trial fold, not a completion-order one.
			note := ""
			if norm.Trials > 1 {
				note = fmt.Sprintf("merged %d trials in trial order", norm.Trials)
			}
			fmt.Print(r.Table.Metrics.TableTitled(note))
			fmt.Println()
		}
	}
	if tracer != nil && *traceOut != "" {
		if err := tracer.WriteFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "qoesim: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "qoesim: wrote %d trace events to %s\n", tracer.Len(), *traceOut)
	}
	if sink != nil {
		if err := sink.writeAll(*traceOut, ids, norm.Trials); err != nil {
			fmt.Fprintf(os.Stderr, "qoesim: %v\n", err)
			return 1
		}
	}
	if analyze {
		if code := analyzeTrace(tracer, results, *profOut, *folded, by, *check); code != 0 {
			exit = code
		}
	}
	if totalCells > 1 {
		fmt.Fprintf(os.Stderr, "qoesim: %d experiments × %d trials on %d workers in %v\n",
			len(ids), norm.Trials, workers, time.Since(start).Round(time.Millisecond))
	}
	return exit
}

// analyzeTrace runs the post-run trace consumers: the aggregated profile
// table, the folded-stack export, and the invariant checker (cross-checking
// the trace against every result's metrics registry merged together).
// Returns a nonzero exit code when the checker found violations.
func analyzeTrace(tracer *trace.Tracer, results []runner.Result,
	printProfile bool, foldedPath string, by profile.Weight, check bool) int {
	events := tracer.Events()
	if printProfile {
		fmt.Print(profile.FromEvents(events).Table(30))
		fmt.Println()
	}
	if foldedPath != "" {
		f, err := os.Create(foldedPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qoesim: %v\n", err)
			return 1
		}
		err = profile.FromEvents(events).WriteFolded(f, by)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "qoesim: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "qoesim: wrote folded stacks to %s\n", foldedPath)
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
			fmt.Fprintf(os.Stderr, "qoesim: invariant violation: %s\n", v)
		}
		if len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "qoesim: %d invariant violations\n", len(violations))
			return 1
		}
		fmt.Fprintf(os.Stderr, "qoesim: trace invariants ok (%d events checked)\n", len(events))
	}
	return 0
}

// writeReport regenerates every artifact and renders a single markdown
// document — the reproduction's self-contained results appendix.
func writeReport(path string, cfg experiments.Config) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# mobileqoe results report\n\n")
	fmt.Fprintf(f, "Generated %s by `qoesim -report`. Deterministic for a given seed.\n\n",
		time.Now().UTC().Format(time.RFC3339))
	for _, id := range experiments.IDs() {
		tab, err := experiments.Run(id, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(f, "## %s — %s\n\n", tab.ID, tab.Title)
		fmt.Fprintf(f, "%s\n\n", experiments.Describe(id))
		fmt.Fprintf(f, "| %s |\n", strings.Join(tab.Columns, " | "))
		seps := make([]string, len(tab.Columns))
		for i := range seps {
			seps[i] = "---"
		}
		fmt.Fprintf(f, "| %s |\n", strings.Join(seps, " | "))
		for _, row := range tab.Rows {
			fmt.Fprintf(f, "| %s |\n", strings.Join(row, " | "))
		}
		for _, n := range tab.Notes {
			fmt.Fprintf(f, "\n> %s", n)
		}
		fmt.Fprint(f, "\n\n")
	}
	return nil
}
