package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobileqoe/internal/runlog"
)

// writeLog writes a run log of four cells, one of them failed, and the
// closing summary when complete is set; torn appends half a record, as a
// killed writer leaves it.
func writeLog(t *testing.T, complete, torn bool) string {
	t.Helper()
	var b bytes.Buffer
	w := runlog.NewWriter(&b)
	if err := w.Manifest(runlog.Manifest{Tool: "test", Experiments: []string{"fig3a"}, Seed: 1, Trials: 4, Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	for i, wall := range []float64{10, 20, 30, 40} {
		c := runlog.Cell{Index: i, ID: "fig3a", Trial: i, Status: "ok", WallMS: wall, VirtualMS: float64(100 * (i + 1))}
		if i == 3 {
			c.Status, c.ErrorClass, c.Error, c.VirtualMS = "error", "deadline", "virtual deadline", 0
		}
		if err := w.Cell(c); err != nil {
			t.Fatal(err)
		}
	}
	if complete {
		if err := w.Summary(runlog.Summary{CellsOK: 3, CellsFailed: 1, WallMS: 100, Status: "failed"}); err != nil {
			t.Fatal(err)
		}
	}
	if torn {
		b.WriteString(`{"type":"cell","ind`)
	}
	path := filepath.Join(t.TempDir(), "run.ndjson")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCheck(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestSummaryDigest: -summary counts cells by status and error class and
// prints interpolated quantiles, virtual time over the cells that did not
// fail.
func TestSummaryDigest(t *testing.T) {
	path := writeLog(t, true, false)
	code, stdout, stderr := runCheck("-summary", path)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr)
	}
	for _, want := range []string{
		"cells=4 (ok=3 failed=1) health=0 alerts=0 exemplars=0 complete\n",
		"  cells by status: error=1 ok=3\n",
		"  error classes:   deadline=1\n",
		"  wall ms:         p50=25.0 p90=37.0 p99=39.7 max=40.0 n=4\n",
		"  virtual ms:      p50=200.0 p90=280.0 p99=298.0 max=300.0 n=3\n",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}

// TestTruncatedLog: strict mode refuses a log without its summary and
// points at -truncated, which accepts it, torn final line included, and
// names the last healthy and last intact cells.
func TestTruncatedLog(t *testing.T) {
	if code, stdout, stderr := runCheck(writeLog(t, false, false)); code != 1 || stdout != "" || !strings.Contains(stderr, "-truncated") {
		t.Errorf("strict: exit %d stdout %q stderr %q, want exit 1 and a -truncated hint", code, stdout, stderr)
	}
	path := writeLog(t, false, true)
	code, stdout, stderr := runCheck("-truncated", path)
	if code != 0 {
		t.Fatalf("-truncated: exit %d\n%s", code, stderr)
	}
	for _, want := range []string{
		"truncated (no summary), torn final line\n",
		"  last healthy cell: index=2 id=fig3a trial=2 wall_ms=30\n",
		"  last intact cell:  index=3 id=fig3a trial=3 status=error\n",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-truncated stdout lacks %q:\n%s", want, stdout)
		}
	}
	if code, _, _ := runCheck(); code != 2 {
		t.Errorf("no files: exit %d, want 2", code)
	}
}
