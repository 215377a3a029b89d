package obsflag

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mobileqoe/internal/engine"
	"mobileqoe/internal/experiments"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/scenario"
	"mobileqoe/internal/telemetry"
	"mobileqoe/internal/trace"
)

// parseProgress parses args on a fresh flag set and returns the mode.
func parseProgress(t *testing.T, args ...string) (ProgressMode, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	rf := registerRunLog(fs)
	err := fs.Parse(args)
	return rf.Progress, err
}

func TestProgressTriState(t *testing.T) {
	for _, c := range []struct {
		args []string
		want ProgressMode
	}{
		{nil, ProgressOff},
		{[]string{"-progress"}, ProgressAuto},
		{[]string{"-progress=true"}, ProgressAuto},
		{[]string{"-progress=false"}, ProgressOff},
		{[]string{"-progress=force"}, ProgressForce},
	} {
		got, err := parseProgress(t, c.args...)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if got != c.want {
			t.Errorf("%v: mode = %v, want %v", c.args, got, c.want)
		}
	}
	if _, err := parseProgress(t, "-progress=sometimes"); err == nil {
		t.Error("-progress=sometimes must be rejected")
	}
	if ProgressForce.String() != "force" || ProgressAuto.String() != "true" || ProgressOff.String() != "false" {
		t.Error("ProgressMode.String round-trip spelling changed")
	}
}

// swapTTY pins the terminal answer for the test's duration.
func swapTTY(t *testing.T, tty bool) {
	t.Helper()
	old := isTTY
	isTTY = func(io.Writer) bool { return tty }
	t.Cleanup(func() { isTTY = old })
}

// startMeter opens a progress-only observer whose meter draws into a
// buffer; read returns the meter output.
func startMeter(t *testing.T, mode ProgressMode, tty bool, total int) (rl *engine.Observer, read func() string) {
	t.Helper()
	swapTTY(t, tty)
	stderr := new(strings.Builder)
	rf := &RunLogFlags{Progress: mode}
	rl, err := rf.Start(stderr, "testtool", total, runlog.Manifest{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rl == nil {
		t.Fatal("progress-enabled Start returned nil")
	}
	return rl, stderr.String
}

// cellEvent is a completed runner cell whose registry records virtual ms of
// simulated time.
func cellEvent(index int, virtual float64) runner.Event {
	m := trace.NewMetrics()
	m.Counter("sim.virtual_ms").Add(virtual)
	m.Histogram("browser.plt_ms").Observe(100 * float64(index+1))
	return runner.Event{Index: index, ID: "fig3a", Trial: index,
		Table: &experiments.Table{Metrics: m}}
}

// tightSLO trips on any cell that simulated 500 ms or more.
var tightSLO = map[string]scenario.Rule{"sim.virtual_ms": {P99LtMS: func(v float64) *float64 { return &v }(500)}}

// TestMeterAutoPipePlain pins satellite behavior: with stderr piped, auto mode
// emits plain newline-terminated lines (no \r), still throttled.
func TestMeterAutoPipePlain(t *testing.T) {
	rl, read := startMeter(t, ProgressAuto, false, 3)
	for i := 0; i < 3; i++ {
		rl.Cell(runlog.Cell{Index: i, ID: "fig3a", Status: "ok", WallMS: 5})
	}
	if err := rl.Close(nil); err != nil {
		t.Fatal(err)
	}
	out := read()
	if strings.Contains(out, "\r") {
		t.Fatalf("piped meter wrote a carriage return:\n%q", out)
	}
	// Throttle: cells 2 and 3 land within meterEvery of cell 1, so only the
	// first draw and the final (forced) draw appear.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d meter lines, want 2 (first + final):\n%q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "testtool: 1/3 cells ok=1 fail=0") {
		t.Fatalf("first line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "testtool: 3/3 cells ok=3 fail=0") {
		t.Fatalf("final line = %q", lines[1])
	}
}

// TestMeterTTYRedraw pins the terminal style: \r-prefixed redraws, a closing
// newline, and -progress=force selecting it even when stderr is a pipe.
func TestMeterTTYRedraw(t *testing.T) {
	for _, c := range []struct {
		name  string
		mode  ProgressMode
		isTTY bool
	}{
		{"auto on tty", ProgressAuto, true},
		{"force on pipe", ProgressForce, false},
	} {
		rl, read := startMeter(t, c.mode, c.isTTY, 2)
		rl.Cell(runlog.Cell{Index: 0, ID: "fig3a", Status: "ok", WallMS: 5})
		if err := rl.Close(nil); err != nil {
			t.Fatal(err)
		}
		out := read()
		if !strings.HasPrefix(out, "\r") {
			t.Fatalf("%s: redraw line missing \\r:\n%q", c.name, out)
		}
		if !strings.HasSuffix(out, "\n") {
			t.Fatalf("%s: meter not terminated with a newline:\n%q", c.name, out)
		}
	}
}

// TestStartGate pins the no-op path: no flags set and no slo: block, no
// observer. An slo: block alone still gets one — its alerts print on stderr
// without a log.
func TestStartGate(t *testing.T) {
	rf := &RunLogFlags{}
	rl, err := rf.Start(io.Discard, "testtool", 1, runlog.Manifest{}, nil)
	if err != nil || rl != nil {
		t.Fatalf("Start with no flags = (%v, %v), want (nil, nil)", rl, err)
	}
	var nilRL *engine.Observer
	nilRL.Cell(runlog.Cell{})
	nilRL.Stream(runner.Event{})
	nilRL.Exemplar(runlog.Exemplar{})
	if n := nilRL.Violations(); n != 0 {
		t.Fatalf("nil observer reports %d violations", n)
	}
	if err := nilRL.Close(nil); err != nil {
		t.Fatal(err)
	}
	if rl, err := rf.Start(io.Discard, "testtool", 1, runlog.Manifest{}, tightSLO); err != nil || rl == nil {
		t.Fatalf("Start with an slo: block = (%v, %v), want an observer", rl, err)
	}
}

// TestAlertExemplarRoundTrip drives the full record set through a real log
// file and validates it with the schema checker: the slo: block's watchdog
// trips on the first cell, the alert counts into the summary and prints on
// stderr, exemplar ranks ascend, and the log passes runlog.Validate.
func TestAlertExemplarRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ndjson")
	var stderr strings.Builder
	rf := &RunLogFlags{Out: path}
	rl, err := rf.Start(&stderr, "testtool", 2, runlog.Manifest{Experiments: []string{"fig3a"}, Trials: 2}, tightSLO)
	if err != nil {
		t.Fatal(err)
	}
	rl.Stream(cellEvent(0, 900))
	rl.Stream(cellEvent(1, 400))
	for rank, idx := range []int{0, 1} {
		rl.Exemplar(runlog.Exemplar{Rank: rank, Index: idx, ID: "fig3a", Trial: idx,
			Metric: "sim.virtual_ms", Value: 900 - float64(rank)*500})
	}
	if n := rl.Violations(); n != 1 {
		t.Fatalf("Violations() = %d, want 1", n)
	}
	if err := rl.Close(nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"testtool: slo alert: sim.virtual_ms p99_lt_ms threshold 500 ", "testtool: slo: 1 rule(s) violated\n"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("stderr missing %q:\n%s", want, stderr.String())
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	counts, err := runlog.Validate(f)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Cells != 2 || counts.Alerts != 1 || counts.Exemplars != 2 {
		t.Fatalf("counts = %+v, want 2 cells, 1 alert, 2 exemplars", counts)
	}
	if counts.Summary.SLOViolations != 1 {
		t.Fatalf("summary slo_violations = %d, want 1", counts.Summary.SLOViolations)
	}
}

// TestTelemetryAggFold pins the telemetry path: Stream folds each cell's
// private registry into the exposed aggregate.
func TestTelemetryAggFold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	rf := &RunLogFlags{Telemetry: path}
	rl, err := rf.Start(io.Discard, "qoesim", 2, runlog.Manifest{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, virtual := range []float64{1200, 800} {
		rl.Stream(cellEvent(i, virtual))
	}
	if err := rl.Close(nil); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.Lint(string(snap)); err != nil {
		t.Fatalf("snapshot does not lint: %v\n%s", err, snap)
	}
	if !strings.Contains(string(snap), "mobileqoe_sim_virtual_ms 2000\n") {
		t.Fatalf("aggregate fold missing (want sim.virtual_ms = 2000):\n%s", snap)
	}
	if !strings.Contains(string(snap), "mobileqoe_browser_plt_ms_count 2\n") {
		t.Fatalf("aggregate histogram fold missing:\n%s", snap)
	}
}

// TestStdoutUntouched pins the observability contract: a run with every
// observer enabled (-runlog, -progress=force, -telemetry, an slo: block)
// writes nothing to stdout.
func TestStdoutUntouched(t *testing.T) {
	dir := t.TempDir()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldStdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = oldStdout }()

	rf := &RunLogFlags{
		Out:       filepath.Join(dir, "run.ndjson"),
		Progress:  ProgressForce,
		Telemetry: filepath.Join(dir, "metrics.prom"),
	}
	rl, err := rf.Start(io.Discard, "testtool", 1, runlog.Manifest{}, tightSLO)
	if err != nil {
		t.Fatal(err)
	}
	rl.Stream(cellEvent(0, 900))
	cerr := rl.Close(nil)

	w.Close()
	os.Stdout = oldStdout
	if cerr != nil {
		t.Fatal(cerr)
	}
	leaked, _ := io.ReadAll(r)
	if len(leaked) != 0 {
		t.Fatalf("observers wrote %d bytes to stdout: %q", len(leaked), leaked)
	}
}

// TestConfigureForcesCollection pins the flag plumbing every command
// shares: -runlog and -telemetry turn per-cell registries on without
// -metrics, so Write keeps stdout clean.
func TestConfigureForcesCollection(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args        []string
		wantMetrics bool
	}{
		{nil, false},
		{[]string{"-metrics"}, true},
		{[]string{"-runlog", filepath.Join(dir, "r.ndjson")}, true},
		{[]string{"-telemetry", filepath.Join(dir, "m.prom")}, true},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		o := Register(fs, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		var cfg experiments.Config
		o.Configure(&cfg)
		if cfg.Metrics != tc.wantMetrics {
			t.Errorf("%v: Metrics=%v, want %v", tc.args, cfg.Metrics, tc.wantMetrics)
		}
		var out bytes.Buffer
		if err := o.Write(&out, trace.NewMetrics(), trace.New()); err != nil {
			t.Fatal(err)
		}
		if (out.Len() > 0) != o.Metrics {
			t.Errorf("%v: Write printed %q", tc.args, out.String())
		}
	}
}

// TestVisitedFlags pins the manifest's flag snapshot: only explicitly-set
// flags appear, with their string spellings.
func TestVisitedFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	registerRunLog(fs)
	if err := fs.Parse([]string{"-progress=force", "-slo-exit"}); err != nil {
		t.Fatal(err)
	}
	got := visitedFlags(fs)
	want := map[string]string{"progress": "force", "slo-exit": "true"}
	if len(got) != len(want) || got["progress"] != want["progress"] || got["slo-exit"] != want["slo-exit"] {
		t.Fatalf("visitedFlags = %v, want %v", got, want)
	}
}

// TestCloseTruncatedLeavesCrashShape pins the interrupted-run contract: the
// log ends after a final health snapshot with no summary record, so strict
// validation refuses it and truncated validation accepts it — exactly like
// a log a kill -9 left behind.
func TestCloseTruncatedLeavesCrashShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ndjson")
	rf := &RunLogFlags{Out: path}
	rl, err := rf.Start(io.Discard, "testtool", 3, runlog.Manifest{Experiments: []string{"fleet:x"}, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rl.Cell(runlog.Cell{Index: 0, ID: "fleet:x", Status: "ok", WallMS: 5})
	rl.Cell(runlog.Cell{Index: 1, ID: "fleet:x", Status: "error", ErrorClass: "canceled",
		Error: "fleet: shard 1 aborted: context canceled"})
	if err := rl.CloseTruncated(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runlog.Validate(bytes.NewReader(data)); err == nil {
		t.Fatal("strict Validate accepted a truncated log")
	}
	c, err := runlog.ValidateTruncated(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ValidateTruncated: %v\nlog:\n%s", err, data)
	}
	if c.HasSummary || c.TornTail {
		t.Fatalf("counts = %+v, want summary-less untorn log", c)
	}
	if c.Cells != 2 || c.Health == 0 {
		t.Fatalf("counts = %+v, want 2 cells and a final health snapshot", c)
	}
	if c.LastOK == nil || c.LastOK.Index != 0 {
		t.Fatalf("LastOK = %+v, want cell 0", c.LastOK)
	}
}

// TestMeterWallQuantiles feeds the meter a known sequence of cell wall
// times and checks the p50/p95 its final health record reports against the
// exact quantiles: both must sit within the HistSketch's documented 6.25%
// relative error.
func TestMeterWallQuantiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ndjson")
	rf := &RunLogFlags{Out: path}
	const n = 400
	rl, err := rf.Start(io.Discard, "testtool", n, runlog.Manifest{Experiments: []string{"fig3a"}, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	walls := make([]float64, n)
	for i := range walls {
		// A skewed spread over three decades, fed out of order.
		walls[i] = 2 + math.Pow(float64((i*7919)%n), 2)/80
		rl.Cell(runlog.Cell{Index: i, ID: "fig3a", Trial: i, Status: "ok", WallMS: walls[i]})
	}
	if err := rl.Close(nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var last runlog.Health
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.Contains(line, `"type":"health"`) {
			if err := json.Unmarshal([]byte(line), &last); err != nil {
				t.Fatal(err)
			}
		}
	}
	if last.Done != n {
		t.Fatalf("final health record has done=%d, want %d", last.Done, n)
	}
	sort.Float64s(walls)
	exact := func(q float64) float64 {
		rank := q * float64(n-1)
		lo := int(rank)
		return walls[lo] + (rank-float64(lo))*(walls[lo+1]-walls[lo])
	}
	for _, c := range []struct {
		name       string
		got, exact float64
	}{{"p50", last.WallP50MS, exact(0.5)}, {"p95", last.WallP95MS, exact(0.95)}} {
		if rel := math.Abs(c.got-c.exact) / c.exact; rel > 0.0625 {
			t.Errorf("wall %s = %.3f, exact %.3f: relative error %.4f > 6.25%%", c.name, c.got, c.exact, rel)
		}
	}
}

// TestStartClosesTelemetryOnLogError pins the error path: when the -runlog
// file cannot be created, Start must not leave the -telemetry listener it
// already bound open — the port can be bound again right away.
func TestStartClosesTelemetryOnLogError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	rf := &RunLogFlags{
		Out:       filepath.Join(t.TempDir(), "missing", "run.ndjson"),
		Telemetry: addr,
	}
	if rl, err := rf.Start(io.Discard, "testtool", 1, runlog.Manifest{}, nil); err == nil {
		rl.Close(nil)
		t.Fatal("Start succeeded with an uncreatable -runlog path")
	}
	again, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("telemetry listener leaked: %v", err)
	}
	again.Close()
}
