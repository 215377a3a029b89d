package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"mobileqoe/internal/runlog"
)

// startMeter opens a progress-only observer drawing plain meter lines into
// a buffer.
func startMeter(t *testing.T, total int) (*Observer, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	o, err := NewObserver("testtool", total, runlog.Manifest{}, nil, Sinks{Meter: &buf})
	if err != nil {
		t.Fatal(err)
	}
	return o, &buf
}

// TestMeterThrottleOverTime pins the redraw cadence: a second draw happens
// only once meterEvery elapsed.
func TestMeterThrottleOverTime(t *testing.T) {
	o, buf := startMeter(t, 3)
	o.Cell(runlog.Cell{Index: 0, Status: "ok"})
	// Backdate the last draw beyond the throttle window; the next cell must
	// draw again without real sleeping.
	o.mu.Lock()
	o.lastDraw = o.lastDraw.Add(-2 * meterEvery)
	o.mu.Unlock()
	o.Cell(runlog.Cell{Index: 1, Status: "ok"})
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("got %d draws after backdating, want 2:\n%q", got, buf.String())
	}
	if err := o.Close(nil); err != nil {
		t.Fatal(err)
	}
}

// TestMeterRestoredCells pins resume-aware progress: restored cells advance
// done and show a restored= count, but contribute neither to the rate/ETA
// nor to the wall-time quantiles — a resumed run must not report an absurd
// cells/s from instantly-replayed checkpoints.
func TestMeterRestoredCells(t *testing.T) {
	o, buf := startMeter(t, 4)
	for i := 0; i < 3; i++ {
		o.Cell(runlog.Cell{Index: i, ID: "fleet:x", Status: "ok", WallMS: 9999, Restored: true})
	}
	if o.restored != 3 || o.done != 3 {
		t.Fatalf("restored=%d done=%d, want 3/3", o.restored, o.done)
	}
	if n := o.wall.N(); n != 0 {
		t.Fatalf("restored wall times leaked into the quantile sketch: n=%d", n)
	}
	// Only the first cell beat the redraw throttle; it already carries the
	// restored count and — crucially — no rate line.
	first := buf.String()
	if !strings.Contains(first, "restored=1") {
		t.Fatalf("meter line missing restored count:\n%q", first)
	}
	if strings.Contains(first, "cells/s") {
		t.Fatalf("rate printed with zero fresh cells:\n%q", first)
	}
	// One fresh cell: rate now exists and is computed over fresh work only.
	o.Cell(runlog.Cell{Index: 3, ID: "fleet:x", Status: "ok", WallMS: 5})
	if err := o.Close(nil); err != nil {
		t.Fatal(err)
	}
	if fresh := o.done - o.restored; fresh != 1 {
		t.Fatalf("fresh = %d, want 1", fresh)
	}
	final := buf.String()
	if !strings.Contains(final, "restored=3") || !strings.Contains(final, "cells/s") {
		t.Fatalf("final meter line missing restored count or rate:\n%q", final)
	}
}

// jobLog validates a finished job's run log and returns its records of one
// type, decoded.
func jobLog(t *testing.T, j *Job, typ string) (runlog.Counts, []map[string]any) {
	t.Helper()
	data := logBytes(j)
	counts, err := runlog.Validate(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("job log invalid: %v\n%s", err, data)
	}
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec["type"] == typ {
			recs = append(recs, rec)
		}
	}
	return counts, recs
}

// TestFleetTimeoutSummaryCountsErrorCells: a served fleet job that times
// out logs an "error" cell for every aborted shard, and its summary must
// count exactly those as failed (it used to report cells_failed 0).
func TestFleetTimeoutSummaryCountsErrorCells(t *testing.T) {
	doc := json.RawMessage(strings.Replace(string(fleetDoc), `"population": 6,`, `"population": 6, "shards": 3,`, 1))
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 4, Parallel: 1})
	j, err := e.Submit(Request{Fleet: doc, TimeoutS: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(context.Background()); err == nil {
		t.Fatal("fleet job with a 1ns timeout succeeded")
	}
	counts, cells := jobLog(t, j, "cell")
	errCells := 0
	for _, c := range cells {
		if c["status"] == "error" {
			errCells++
		}
	}
	if errCells == 0 {
		t.Fatalf("timed-out fleet logged no error cells: %+v", counts)
	}
	if s := counts.Summary; s.CellsFailed != errCells || s.Status != "failed" {
		t.Fatalf("summary = %+v, want cells_failed %d and status failed", s, errCells)
	}
}

// TestServedSLOMatchesCLI: a served scenario with an slo: block raises the
// same alert the qoesim CLI logs for it (the literal record below is the
// CLI's for -pages 2), and the SLO never changes the served body.
func TestServedSLOMatchesCLI(t *testing.T) {
	doc, err := os.ReadFile("../scenario/testdata/web_sweep_slo.json")
	if err != nil {
		t.Fatal(err)
	}
	var noSLO map[string]json.RawMessage
	if err := json.Unmarshal(doc, &noSLO); err != nil {
		t.Fatal(err)
	}
	delete(noSLO, "slo")
	plain, err := json.Marshal(noSLO)
	if err != nil {
		t.Fatal(err)
	}

	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 4, Parallel: 2})
	j, err := runJob(context.Background(), e, Request{Scenario: doc, Pages: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts, alerts := jobLog(t, j, "alert")
	if counts.Summary.SLOViolations != 1 || len(alerts) != 1 {
		t.Fatalf("summary slo_violations = %d with %d alert records, want 1 and 1",
			counts.Summary.SLOViolations, len(alerts))
	}
	got, err := json.Marshal(alerts[0])
	if err != nil {
		t.Fatal(err)
	}
	const cli = `{"cell_id":"scenario:web_sweep_slo","cell_index":0,"metric":"sim.virtual_ms","n":1,"rule":"p99_lt_ms","threshold":1,"trial":0,"type":"alert","value":29605.985239}`
	if string(got) != cli {
		t.Fatalf("served alert differs from the CLI's:\n got %s\nwant %s", got, cli)
	}

	body, err := j.Output()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := runJob(context.Background(), e, Request{Scenario: plain, Pages: 2})
	if err != nil {
		t.Fatal(err)
	}
	plainBody, err := pj.Output()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, plainBody) {
		t.Fatalf("slo: block changed the served body:\n%s\n---\n%s", body, plainBody)
	}
}
