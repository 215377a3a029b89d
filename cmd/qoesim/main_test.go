package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobileqoe/internal/runlog"
)

// tinyArgs shrinks the run so in-process tests stay fast.
var tinyArgs = []string{"-pages", "1", "-clip", "5s", "-call", "2s"}

// runArgs drives run the way main does, capturing stdout/stderr.
func runArgs(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// runCLI drives run shrunk by tinyArgs.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	return runArgs(t, append(append([]string{}, tinyArgs...), args...)...)
}

// TestRequestSizeUsageErrors: request sizes outside the engine's bounds are
// usage errors (exit 2) rejected before anything is allocated or run.
func TestRequestSizeUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "fig3a", "-pages", "-1"},
		{"-run", "table1", "-trials", "1000000000000"},
	} {
		code, stdout, stderr := runCLI(t, args...)
		if code != exitUsage || stdout != "" {
			t.Errorf("%v: code=%d stdout=%q stderr=%q, want exit %d and no table", args, code, stdout, stderr, exitUsage)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExemplarsComposeWithCheckTrace checks -exemplars no longer refuses the
// analysis flags: both planes read the same per-cell tracers.
func TestExemplarsComposeWithCheckTrace(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runCLI(t, "-run", "fig3d", "-trials", "2", "-exemplars", "2",
		"-exemplar-out", filepath.Join(dir, "x.json"), "-checktrace")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "trace invariants ok") {
		t.Errorf("no checker verdict on stderr:\n%s", stderr)
	}
	for _, name := range []string{"x.exemplar.fig3d.trial0.json", "x.exemplar.fig3d.trial1.json"} {
		if len(readFile(t, filepath.Join(dir, name))) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

// TestCombinedTraceIdenticalAcrossWorkers checks the combined trace is built
// from per-cell tracers appended in cell order: the file is the same bytes
// whether the cells ran on one worker or on four, with or without an
// analysis flag, and tracing no longer forces the run onto one worker.
func TestCombinedTraceIdenticalAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	seq := filepath.Join(dir, "s.json")
	if code, _, stderr := runCLI(t, "-run", "fig3a", "-trials", "3", "-parallel", "1", "-trace", seq); code != 0 {
		t.Fatalf("-parallel 1: exit %d\n%s", code, stderr)
	}
	a := readFile(t, seq)
	for i, extra := range [][]string{{"-profile"}, {}} {
		par := filepath.Join(dir, fmt.Sprintf("c%d.json", i))
		code, _, stderr := runCLI(t, append([]string{"-run", "fig3a", "-trials", "3", "-parallel", "4", "-trace", par}, extra...)...)
		if code != 0 {
			t.Fatalf("-parallel 4 %v: exit %d\n%s", extra, code, stderr)
		}
		if !strings.Contains(stderr, "on 4 workers") {
			t.Errorf("traced run %v did not keep its 4 workers:\n%s", extra, stderr)
		}
		if b, err := os.ReadFile(par); len(a) == 0 || err != nil || !bytes.Equal(a, b) {
			t.Fatalf("combined traces differ: %d bytes at -parallel 1, %d at -parallel 4 %v (%v)", len(a), len(b), extra, err)
		}
	}
}

// TestMetricsTableRepeatable: the -metrics registry holds no host timing,
// so two identical runs print the same bytes, padding included.
func TestMetricsTableRepeatable(t *testing.T) {
	args := []string{"-run", "fig3a", "-pages", "1", "-trials", "2", "-metrics"}
	code, first, stderr := runArgs(t, args...)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if !strings.Contains(first, "p99") {
		t.Fatalf("no registry table on stdout:\n%s", first)
	}
	if _, second, _ := runArgs(t, args...); second != first {
		t.Fatalf("-metrics stdout differs between identical runs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestReportUsesRunResults checks -report renders the tables the run already
// produced: with -run fig3a it holds only fig3a, and the run executes each
// cell once (its trace equals a run without -report).
func TestReportUsesRunResults(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "r.md")
	withReport, plain := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	code, stdout, stderr := runCLI(t, "-run", "fig3a", "-trials", "2", "-report", report, "-trace", withReport)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "wrote "+report+"\n") {
		t.Errorf("stdout does not start with the report path:\n%s", stdout)
	}
	if n := strings.Count(stderr, "] fig3a trial "); n != 2 {
		t.Errorf("ran %d cells, want 2:\n%s", n, stderr)
	}
	md := string(readFile(t, report))
	if n := strings.Count(md, "\n## "); n != 1 || !strings.Contains(md, "\n## fig3a — ") {
		t.Errorf("report has %d sections, want only fig3a:\n%s", n, md)
	}
	if code, _, stderr := runCLI(t, "-run", "fig3a", "-trials", "2", "-trace", plain); code != 0 {
		t.Fatalf("plain run: exit %d\n%s", code, stderr)
	}
	if !bytes.Equal(readFile(t, withReport), readFile(t, plain)) {
		t.Error("-report changed the run's trace: the report ran its own pass")
	}
}

// TestReportGolden pins the -report file of a small run byte for byte: the
// report says it is deterministic for a given seed, so it carries no wall
// clock. Regenerate with
//
//	go run ./cmd/qoesim -run fig3a -pages 1 -report cmd/qoesim/testdata/report_fig3a.md
func TestReportGolden(t *testing.T) {
	report := filepath.Join(t.TempDir(), "r.md")
	if code, _, stderr := runArgs(t, "-run", "fig3a", "-pages", "1", "-report", report); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	got, want := readFile(t, report), readFile(t, filepath.Join("testdata", "report_fig3a.md"))
	if !bytes.Equal(got, want) {
		t.Errorf("report changed:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestScenarioBuiltinFaultPlan: a scenario file naming the built-in plan
// runs exactly as the same scenario under -faults default.
func TestScenarioBuiltinFaultPlan(t *testing.T) {
	dir := t.TempDir()
	doc := func(name, extra string) string {
		path := filepath.Join(dir, name+".json")
		body := `{"name": "one_point", "title": "One faulted point", "device": "nexus4",
			"workload": {"kind": "page"}, "axis": {"param": "clock_mhz", "values": [1512]}` + extra + `}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	planned, bare := doc("planned", `, "fault_plan": "default"`), doc("bare", "")
	code, inFile, stderr := runCLI(t, "-scenario", planned)
	if code != 0 {
		t.Fatalf("fault_plan default: exit %d; stderr:\n%s", code, stderr)
	}
	code, byFlag, stderr := runCLI(t, "-scenario", bare, "-faults", "default")
	if code != 0 {
		t.Fatalf("-faults default: exit %d; stderr:\n%s", code, stderr)
	}
	if code, clean, _ := runCLI(t, "-scenario", bare); code != 0 || clean == byFlag {
		t.Fatalf("the fault-free run (exit %d) matches the faulted one, so the comparison shows nothing:\n%s", code, clean)
	}
	if inFile != byFlag {
		t.Fatalf("fault_plan default differs from -faults default:\n--- file ---\n%s\n--- flag ---\n%s", inFile, byFlag)
	}
}

// TestHistogramSLORuleExits: a quantile rule on a registry histogram
// (browser.plt_ms) is checked like one on a counter, so an impossible p50
// budget logs an alert and fails the run under -slo-exit.
func TestHistogramSLORuleExits(t *testing.T) {
	data, err := os.ReadFile("../../internal/scenario/testdata/web_sweep_slo.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc["slo"] = map[string]any{"browser.plt_ms": map[string]any{"p50_lt_ms": 1}}
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, logPath := filepath.Join(dir, "plt_slo.json"), filepath.Join(dir, "run.ndjson")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "-scenario", path, "-slo-exit", "-runlog", logPath)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	// The alert and the violation count reach the stderr run was given.
	for _, want := range []string{"qoesim: slo alert: browser.plt_ms p50_lt_ms ", "qoesim: slo: 1 rule(s) violated\n"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if c, err := runlog.Validate(bytes.NewReader(log)); err != nil || c.Alerts != 1 {
		t.Fatalf("run log: %d alerts, err %v; want 1 alert", c.Alerts, err)
	}
	for _, line := range strings.Split(string(log), "\n") {
		var a runlog.Alert
		if strings.Contains(line, `"type":"alert"`) && json.Unmarshal([]byte(line), &a) == nil &&
			a.Metric == "browser.plt_ms" && a.Rule == "p50_lt_ms" && a.Value >= 1 {
			return
		}
	}
	t.Fatalf("no browser.plt_ms p50_lt_ms alert in the run log:\n%s", log)
}

// TestTimeoutNamesUnstartedTrials: -timeout bounds the run through its
// context, so an already-expired deadline starts no trial and each one is
// reported by name.
func TestTimeoutNamesUnstartedTrials(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-run", "fig3a", "-pages", "1", "-trials", "3", "-parallel", "1", "-timeout", "1ns")
	if code != 1 || stdout != "" {
		t.Fatalf("exit %d, stdout %q; want exit 1 and no table", code, stdout)
	}
	for trial := 0; trial < 3; trial++ {
		want := fmt.Sprintf("fig3a trial %d: not started: context deadline exceeded", trial)
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}
