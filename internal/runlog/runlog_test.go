package runlog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mobileqoe/internal/core"
)

func writeGoodLog(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Manifest(Manifest{
		Tool:         "qoesim",
		Experiments:  []string{"fig3a", "fig4a"},
		Seed:         1,
		SeedSchedule: "trial t runs seed*1e6+t; retry attempt a mixes a via AttemptSeed",
		Trials:       2,
		Parallel:     4,
		Flags:        map[string]string{"trials": "2"},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c := Cell{Index: i, ID: "fig3a", Trial: i % 2, Seed: uint64(1000000 + i%2),
			Status: "ok", WallMS: 12.5, VirtualMS: 30000}
		if i == 3 {
			c.Status = "error"
			c.ErrorClass = "deadline"
			c.Error = "fig4a trial 1: failed after 1 attempt(s): core: simulation deadline exceeded before the workload finished"
		}
		if err := w.Cell(c); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if err := w.Health(Health{Done: 2, Total: 4, ElapsedMS: 25,
				CellsPerSec: 80, ETAMS: 25, WallP50MS: 12, WallP95MS: 13,
				Runtime: CaptureRuntime()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Alert(Alert{Metric: "sim.virtual_ms", Rule: "p99_lt_ms", Threshold: 5000,
		Value: 30000, CellIndex: 3, CellID: "fig4a", Trial: 1, N: 4}); err != nil {
		t.Fatal(err)
	}
	for rank, idx := range []int{3, 0} {
		if err := w.Exemplar(Exemplar{Rank: rank, Index: idx, ID: "fig3a", Trial: idx % 2,
			Seed: uint64(1000000 + idx%2), Metric: "sim.virtual_ms", Value: 30000,
			Path: fmt.Sprintf("out.exemplar.fig3a.trial%d.json", idx%2)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Summary(Summary{CellsOK: 3, CellsFailed: 1, WallMS: 50, Status: "failed",
		SLOViolations: 1}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestRoundTrip(t *testing.T) {
	buf := writeGoodLog(t)
	c, err := Validate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Validate: %v\nlog:\n%s", err, buf.String())
	}
	if c.Cells != 4 || c.CellsOK != 3 || c.CellsFailed != 1 || c.Health != 1 || !c.HasSummary {
		t.Fatalf("counts = %+v", c)
	}
	if c.Alerts != 1 || c.Exemplars != 2 {
		t.Fatalf("alert/exemplar counts = %+v", c)
	}
	if c.Manifest.Tool != "qoesim" || c.Manifest.Schema != Schema || len(c.Manifest.Experiments) != 2 {
		t.Fatalf("manifest = %+v", c.Manifest)
	}
	if c.Summary.SLOViolations != 1 || c.Summary.Status != "failed" {
		t.Fatalf("summary = %+v", c.Summary)
	}
}

func TestWriterEnforcesStructure(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Cell(Cell{Index: 0, Status: "ok"}); err == nil {
		t.Fatal("cell before manifest should fail")
	}
	if err := w.Manifest(Manifest{Tool: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Manifest(Manifest{Tool: "t"}); err == nil {
		t.Fatal("duplicate manifest should fail")
	}
	if err := w.Cell(Cell{Index: 1, Status: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Cell(Cell{Index: 1, Status: "ok"}); err == nil {
		t.Fatal("non-increasing cell index should fail")
	}
	if err := w.Alert(Alert{Metric: "m"}); err == nil {
		t.Fatal("alert without rule should fail")
	}
	if err := w.Exemplar(Exemplar{Rank: 0}); err == nil {
		t.Fatal("exemplar without metric should fail")
	}
	if err := w.Summary(Summary{Status: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Health(Health{}); err == nil {
		t.Fatal("record after summary should fail")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	good := writeGoodLog(t).String()
	lines := strings.Split(strings.TrimRight(good, "\n"), "\n")
	cases := []struct {
		name string
		log  string
		want string
	}{
		{"empty", "", "empty log"},
		{"junk", "not json\n", "not a JSON object"},
		{"no manifest first", lines[1] + "\n", "want manifest"},
		{"unknown field", strings.Replace(lines[0], `"tool"`, `"tool_x"`, 1) + "\n", "unknown field"},
		{"unknown type", lines[0] + "\n" + `{"type":"mystery"}` + "\n", "unknown record type"},
		{"wrong schema", strings.Replace(lines[0], fmt.Sprintf(`"schema":%d`, Schema), `"schema":99`, 1) + "\n", "schema 99"},
		{"duplicate manifest", lines[0] + "\n" + lines[0] + "\n", "duplicate manifest"},
		{"out-of-order cells", lines[0] + "\n" + lines[2] + "\n" + lines[1] + "\n", "not after"},
		{"after summary", good + lines[1] + "\n", "after summary"},
		{"ok with error fields", lines[0] + "\n" + strings.Replace(lines[5], `"status":"error"`, `"status":"ok"`, 1) + "\n", "status ok with error fields"},
		{"bad status", lines[0] + "\n" + strings.Replace(lines[1], `"status":"ok"`, `"status":"meh"`, 1) + "\n", "unknown cell status"},
		{"alert without rule", lines[0] + "\n" + `{"type":"alert","metric":"m","rule":"","value":1,"cell_index":0,"trial":0}` + "\n", "alert without metric/rule"},
		{"exemplar without metric", lines[0] + "\n" + `{"type":"exemplar","rank":0,"index":0,"id":"x","trial":0,"seed":1,"metric":"","value":1}` + "\n", "exemplar without metric"},
		{"exemplar rank gap", lines[0] + "\n" + `{"type":"exemplar","rank":1,"index":0,"id":"x","trial":0,"seed":1,"metric":"m","value":1}` + "\n", "ranks ascend"},
		// The summary must agree with the records it closes: a served fleet
		// job once logged 12 error cells under "cells_failed":0.
		{"summary undercounts failures", strings.Replace(good, `"cells_failed":1`, `"cells_failed":0`, 1), "summary says"},
		{"summary overcounts ok cells", strings.Replace(good, `"cells_ok":3`, `"cells_ok":4`, 1), "summary says"},
		{"summary omits violations", strings.Replace(good, `,"slo_violations":1`, ``, 1), "summary says"},
	}
	for _, c := range cases {
		_, err := Validate(strings.NewReader(c.log))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestClassifyError(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{fmt.Errorf("cell: %w", core.ErrDeadline), "deadline"},
		{fmt.Errorf("not started: %w", context.Canceled), "canceled"},
		{fmt.Errorf("not started: %w", context.DeadlineExceeded), "canceled"},
		{errors.New("attempt 0: panic: boom"), "panic"},
		{errors.New("something else"), "error"},
	}
	for _, c := range cases {
		if got := ClassifyError(c.err); got != c.want {
			t.Errorf("ClassifyError(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestCaptureRuntime(t *testing.T) {
	s := CaptureRuntime()
	if s.AllocTotalBytes == 0 || s.PeakHeapBytes == 0 {
		t.Fatalf("implausible runtime snapshot: %+v", s)
	}
}

// truncLines returns the good log split into lines (manifest, cell0, cell1,
// health, cell2, cell3, alert, exemplar, exemplar, summary).
func truncLines(t *testing.T) []string {
	t.Helper()
	return strings.Split(strings.TrimRight(writeGoodLog(t).String(), "\n"), "\n")
}

func TestValidateDemandsSummary(t *testing.T) {
	lines := truncLines(t)
	crashed := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	_, err := Validate(strings.NewReader(crashed))
	if err == nil || !strings.Contains(err.Error(), "-truncated") {
		t.Fatalf("Validate on a summary-less log = %v, want an error pointing at runlogcheck -truncated", err)
	}
}

func TestValidateTruncatedAcceptsCrashShapes(t *testing.T) {
	lines := truncLines(t)
	body := strings.Join(lines[:len(lines)-1], "\n") + "\n" // summary stripped

	t.Run("missing summary", func(t *testing.T) {
		c, err := ValidateTruncated(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if c.HasSummary || c.TornTail || c.Cells != 4 {
			t.Fatalf("counts = %+v", c)
		}
		if c.LastCell == nil || c.LastCell.Index != 3 || c.LastCell.Status != "error" {
			t.Fatalf("LastCell = %+v, want the intact error cell at index 3", c.LastCell)
		}
		if c.LastOK == nil || c.LastOK.Index != 2 || c.LastOK.Status != "ok" {
			t.Fatalf("LastOK = %+v, want the ok cell at index 2", c.LastOK)
		}
	})
	t.Run("torn final line", func(t *testing.T) {
		torn := body + lines[len(lines)-1][:20] // mid-record kill
		c, err := ValidateTruncated(strings.NewReader(torn))
		if err != nil {
			t.Fatal(err)
		}
		if !c.TornTail || c.Cells != 4 {
			t.Fatalf("counts = %+v, want TornTail with 4 intact cells", c)
		}
	})
	t.Run("complete log still passes", func(t *testing.T) {
		c, err := ValidateTruncated(writeGoodLog(t))
		if err != nil {
			t.Fatal(err)
		}
		if !c.HasSummary || c.TornTail {
			t.Fatalf("counts = %+v", c)
		}
	})
	t.Run("torn line mid-log stays fatal", func(t *testing.T) {
		midTorn := lines[0] + "\n" + lines[1][:15] + "\n" + lines[2] + "\n"
		if _, err := ValidateTruncated(strings.NewReader(midTorn)); err == nil {
			t.Fatal("a torn line followed by more records must fail: only the tail may be damaged")
		}
	})
	t.Run("torn manifest alone is not a log", func(t *testing.T) {
		if _, err := ValidateTruncated(strings.NewReader(lines[0][:25])); err == nil {
			t.Fatal("a log with no intact manifest must fail even in truncated mode")
		}
	})
	t.Run("restored cell accepted", func(t *testing.T) {
		restored := lines[0] + "\n" +
			`{"type":"cell","index":0,"id":"fleet:x","trial":0,"seed":9,"status":"ok","wall_ms":5,"restored":true}` + "\n"
		c, err := ValidateTruncated(strings.NewReader(restored))
		if err != nil {
			t.Fatal(err)
		}
		if c.LastOK == nil || !c.LastOK.Restored {
			t.Fatalf("LastOK = %+v, want the restored cell", c.LastOK)
		}
	})
}
