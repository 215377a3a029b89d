// Command perfbench is the repository's benchmark. It drives the simulator
// through its public entry points in three workloads and prints the
// end-to-end metrics of a run, or with -trace 1 the per-layer metrics of a
// traced run, ending with one JSON line:
//
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
//
// Workloads (README.md gives the reasons and the metrics' meanings):
//
//	figures  runner.Run of the multi-trial suite, one timed pass after another
//	serve    a qoesimd process answering cold and warm requests in turn
//	fleet    fleet.Parse → Compile → Run with a checkpoint, one fleet after another
//
// Each run sets up in a fresh process, runs one untimed operation, then
// measures for -seconds. Set-up time is the median of three set-ups, two of
// them in child processes that stop after set-up. Times are reference
// times, scaled by the host's speed at the moment (see refClock). Every
// operation's output is checked; a failed check counts the operation as
// failed, and the command then exits 1 after printing the result.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mobileqoe/internal/buildinfo"
)

// setupRuns is how many set-ups setup_s is the median of.
const setupRuns = 3

// fleetPopulation and fleetShards size the fleet workload: 24 equal shards
// of 20 tuples.
const fleetPopulation, fleetShards = 480, 24

// workers is the runner and fleet worker count (see singleCPU).
const workers = 1

// workload is one benchmark workload.
type workload interface {
	// setup builds the inputs and ends with one untimed operation, lapping
	// clk (which may be nil) between its steps.
	setup(clk *refClock) error
	// run measures operations until deadline. A non-nil tracer records
	// every other operation's spans and per-layer samples.
	run(deadline time.Time, tr *tracer) *tally
	// digest fingerprints the checked outputs, so two commits can be
	// compared for identical simulated results.
	digest() string
	peakRSSMB() (float64, error)
	close() error
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	setupOnly bool
	qoesimd   string
	workDir   string
}

func newWorkload(name string, o options) (workload, error) {
	switch name {
	case "figures":
		return newFigures(o.seed), nil
	case "serve":
		return newServe(o.qoesimd, o.seed), nil
	case "fleet":
		return newFleet(o.seed, filepath.Join(o.workDir, fmt.Sprintf("fleet-%d", os.Getpid())), fleetPopulation, fleetShards), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want figures, serve or fleet)", name)
}

// alternate traces even-numbered operations only, so a traced run also
// times untraced operations and can report the tracing overhead.
func alternate(tr *tracer, i int) *tracer {
	if i%2 == 0 {
		return tr
	}
	return nil
}

// singleCPU is the environment setting every process of the benchmark runs
// with. On a two-vCPU VM the second vCPU's capacity can swing between none
// and a full core for seconds at a time (two goroutines hashing took 80 ms
// per round in some phases and 42 ms in others, one goroutine a steady
// 41 ms), so anything that keeps two threads busy at once times the host's
// scheduling rather than the code. With one P per process, one worker and
// one client at a time, a run keeps one thread busy.
const singleCPU = "GOMAXPROCS=1"

func main() {
	runtime.GOMAXPROCS(1) // see singleCPU
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "figures, serve or fleet")
	fs.Uint64Var(&o.seed, "seed", 1, "seed all inputs derive from")
	fs.IntVar(&o.seconds, "seconds", 10, "measured window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "time one set-up, print it, and exit (used for the set-up repeats)")
	fs.StringVar(&o.qoesimd, "qoesimd", ".bench_build/qoesimd", "qoesimd binary the serve workload starts")
	fs.StringVar(&o.workDir, "workdir", ".bench_build/perfbench-work", "directory for checkpoints and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if fs.NArg() > 0 || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: perfbench -workload figures|serve|fleet -seed N -seconds S -trace 0|1")
		return 2
	}
	if _, err := newWorkload(o.workload, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	if o.setupOnly {
		s, err := timeSetup(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "setup_s %v\n", s)
		return 0
	}

	var rep *report
	var err error
	if o.trace {
		rep, err = tracedRun(o, stdout)
	} else {
		rep, err = measuredRun(o)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.print(stdout, o)
	if !rep.correct() {
		return 1
	}
	return 0
}

// timeSetup sets the workload up once, in this process, and tears it down.
func timeSetup(o options) (float64, error) {
	w, err := newWorkload(o.workload, o)
	if err != nil {
		return 0, err
	}
	took, err := setupSeconds(w)
	if cerr := w.close(); err == nil {
		err = cerr
	}
	return took, err
}

// setupSeconds sets w up and returns the set-up's reference time in seconds.
func setupSeconds(w workload) (float64, error) {
	clk := startClock()
	err := w.setup(clk)
	clk.lap()
	return clk.total / 1000, err
}

// setupChild times one set-up in a fresh child process.
func setupChild(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-qoesimd", o.qoesimd, "-workdir", o.workDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if v, ok := strings.CutPrefix(line, "setup_s "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("set-up child printed no setup_s line: %q", out)
}

// report is what one run prints.
type report struct {
	tally   *tally
	metrics map[string]float64
	units   map[string]string
	digests []string
}

func (r *report) correct() bool {
	return r.tally.failed == 0 && r.tally.attempted > 0
}

// measuredRun is an untraced run: set-ups, then the timed window.
func measuredRun(o options) (*report, error) {
	var setups []float64
	for i := 0; i < setupRuns-1; i++ {
		s, err := setupChild(o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	w, err := newWorkload(o.workload, o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	s, err := setupSeconds(w)
	if err != nil {
		return nil, err
	}
	setups = append(setups, s)

	t := w.run(time.Now().Add(time.Duration(o.seconds)*time.Second), nil)
	rss, err := w.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := w.close(); err != nil {
		return nil, err
	}
	if len(t.units) == 0 {
		t.check(errors.New("the window completed no timed unit"))
	}
	return &report{
		tally: t,
		metrics: map[string]float64{
			"setup_s":    quantile(setups, 0.5),
			"op_p50_ms":  quantile(t.units, 0.5),
			"max_rss_mb": rss,
		},
		units:   endToEndUnits,
		digests: []string{w.digest()},
	}, nil
}

var endToEndUnits = map[string]string{
	"setup_s": "s", "op_p50_ms": "ms", "max_rss_mb": "MB",
}

// layerUnits lists every per-layer metric a traced run prints.
var layerUnits = map[string]string{
	"runner.busy_frac": "ratio", "runner.tail_ms": "ms",
	"experiments.fig2a_ms": "ms", "experiments.fig3a_ms": "ms", "experiments.fig4a_ms": "ms",
	"experiments.fig5a_ms": "ms", "experiments.fig6_ms": "ms",
	"sim.events_per_pass": "count", "cpu.tasks_per_pass": "count", "sim.ns_per_event": "ns",
	"core.page_ms": "ms", "core.video_ms": "ms", "core.call_ms": "ms", "core.iperf_ms": "ms",
	"core.page_events": "count", "core.video_events": "count", "core.call_events": "count", "core.iperf_events": "count",
	"webpage.generate_ms": "ms", "webpage.corpus_ms": "ms",
	"script.parse_us": "us", "script.run_us": "us", "script.ops_per_corpus": "count",
	"rex.calls_per_corpus": "count", "rex.steps_per_corpus": "count",
	"cache.result_hit_ratio": "ratio", "cache.profiles_hit_ratio": "ratio",
	"cache.programs_hit_ratio": "ratio", "cache.corpus_loads": "count",
	"engine.run_ms": "ms", "engine.queue_ms": "ms",
	"qoesimd.submit_ms": "ms", "qoesimd.result_ms": "ms",
	"fleet.tuple_us": "us", "fleet.checkpoint_ms": "ms",
	"go.alloc_mb_per_op": "MB", "go.gc_cpu_frac": "ratio",
	"trace.overhead_ms": "ms",
}

// tracedRun runs the corpus probe, all three workloads traced (the named
// one for the full window, the others for a third of it), then the core
// probe; every per-layer metric comes from this one process.
func tracedRun(o options, stdout io.Writer) (*report, error) {
	tr := newTracer()
	all := &tally{}
	m := map[string]float64{}
	var digests []string
	if err := probeCorpus(tr, o.seed, m); err != nil {
		return nil, err
	}
	for _, name := range []string{"figures", "fleet", "serve"} {
		window := time.Duration(o.seconds) * time.Second
		if name != o.workload {
			window /= 3
		}
		w, err := newWorkload(name, o)
		if err != nil {
			return nil, err
		}
		t, err := tracedSession(w, tr, window, m)
		if cerr := w.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		digests = append(digests, w.digest())
		all.attempted += t.attempted
		all.failed += t.failed
		all.problems = append(all.problems, t.problems...)
		if name == o.workload {
			if t.attempted > 0 {
				m["go.alloc_mb_per_op"] = t.allocBytes / float64(t.attempted) / (1 << 20)
			}
			m["go.gc_cpu_frac"] = t.gcFrac
			m["trace.overhead_ms"] = quantile(t.traced, 0.5) - quantile(t.plain, 0.5)
		}
	}
	if err := probeCore(tr, o.seed, m); err != nil {
		return nil, err
	}
	for name, v := range tr.medians() {
		m[name] = v
	}

	tr.printSelfTimes(stdout)
	path := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := tr.writeSpans(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "perfbench: spans written to %s\n", path)

	out := map[string]float64{}
	for name := range layerUnits {
		v, ok := m[name]
		if !ok {
			all.check(fmt.Errorf("traced run measured no %s", name))
		}
		out[name] = v
	}
	return &report{tally: all, metrics: out, units: layerUnits, digests: digests}, nil
}

// tracedSession sets w up and runs it traced for window.
func tracedSession(w workload, tr *tracer, window time.Duration, m map[string]float64) (*tally, error) {
	if err := w.setup(nil); err != nil {
		return nil, err
	}
	t := w.run(time.Now().Add(window), tr)
	if f, ok := w.(*figures); ok {
		if err := f.layers(tr, m); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// print writes the human-readable summary, then the result as the last
// line: one JSON object with correct, attempted, failed and metrics.
func (r *report) print(w io.Writer, o options) {
	version := buildinfo.CodeVersion()
	if version == "" {
		version = "unstamped"
	}
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%d trace=%t code_version=%s\n",
		o.workload, o.seed, o.seconds, o.trace, version)
	for _, d := range r.digests {
		fmt.Fprintf(w, "perfbench: %s\n", d)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	for _, n := range names {
		out[n] = metric{r.metrics[n], r.units[n]}
		fmt.Fprintf(w, "  %-26s %14.4f %s\n", n, r.metrics[n], r.units[n])
	}
	fmt.Fprintf(w, "perfbench: %d operations attempted, %d failed\n", r.tally.attempted, r.tally.failed)
	for _, p := range r.tally.problems {
		fmt.Fprintf(w, "perfbench: check failed: %s\n", p)
	}
	bw := bufio.NewWriter(w)
	json.NewEncoder(bw).Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.tally.attempted, r.tally.failed, out})
	bw.Flush()
}
