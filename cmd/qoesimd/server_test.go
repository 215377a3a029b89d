package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mobileqoe/internal/engine"
	"mobileqoe/internal/runlog"
)

const testScenario = `{
	"name": "served",
	"title": "served sweep",
	"device": "nexus4",
	"workload": {"kind": "page"},
	"axis": {"param": "clock_mhz", "values": [594, 1512]}
}`

func newTestServer(t *testing.T, cfg engine.Config) (*httptest.Server, *engine.Engine) {
	t.Helper()
	if cfg.Tool == "" {
		cfg.Tool = "qoesimd-test"
	}
	eng := engine.New(cfg)
	ts := httptest.NewServer(newServer(eng))
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return ts, eng
}

func submitBody(seed uint64) string {
	return fmt.Sprintf(`{"scenario": %s, "seed": %d, "pages": 2}`, testScenario, seed)
}

type statusDoc struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

func postRun(t *testing.T, base, body string) (int, statusDoc) {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/runs: %v", err)
	}
	defer resp.Body.Close()
	var st statusDoc
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, st
}

// fetchResult polls /result until the job settles, returning the body and
// the X-Qoesim-Cached header.
func fetchResult(t *testing.T, base, id string) ([]byte, bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(base + "/v1/runs/" + id + "/result")
		if err != nil {
			t.Fatalf("GET result: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return body, resp.Header.Get("X-Qoesim-Cached") == "true"
		case http.StatusAccepted:
			if time.Now().After(deadline) {
				t.Fatal("job did not finish in time")
			}
			time.Sleep(50 * time.Millisecond)
		default:
			t.Fatalf("GET result: status %d: %s", resp.StatusCode, body)
		}
	}
}

func scrapeMetric(t *testing.T, base, family string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, family+" ") {
			var v float64
			fmt.Sscanf(line[len(family)+1:], "%g", &v)
			return v
		}
	}
	t.Fatalf("family %s not in exposition:\n%s", family, body)
	return 0
}

// TestServeColdCachedConcurrent is the end-to-end acceptance pin: a cold
// request, a repeat (served from the result cache, hit visible in
// /metrics), and a concurrent burst all return byte-identical bodies.
func TestServeColdCachedConcurrent(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 2, QueueDepth: 32, Parallel: 2})
	body := submitBody(4)

	code, st := postRun(t, ts.URL, body)
	if code != http.StatusAccepted {
		t.Fatalf("cold submit: status %d (%+v)", code, st)
	}
	cold, cachedHdr := fetchResult(t, ts.URL, st.ID)
	if len(cold) == 0 || cachedHdr {
		t.Fatalf("cold result: %d bytes, cached=%v", len(cold), cachedHdr)
	}
	if !strings.Contains(string(cold), "clock_mhz") {
		t.Fatalf("result does not look like a table:\n%s", cold)
	}

	hitsBefore := scrapeMetric(t, ts.URL, "mobileqoe_cache_engine_results_hits")
	code, st2 := postRun(t, ts.URL, body)
	if code != http.StatusOK || !st2.Cached || st2.State != "done" {
		t.Fatalf("warm submit: status %d (%+v), want 200 cached done", code, st2)
	}
	warm, cachedHdr := fetchResult(t, ts.URL, st2.ID)
	if !cachedHdr {
		t.Fatal("warm result missing X-Qoesim-Cached: true")
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cached body differs from cold body:\n%s\n---\n%s", cold, warm)
	}
	if hitsAfter := scrapeMetric(t, ts.URL, "mobileqoe_cache_engine_results_hits"); hitsAfter <= hitsBefore {
		t.Fatalf("result-cache hit not visible in /metrics: %g -> %g", hitsBefore, hitsAfter)
	}

	const n = 6
	var wg sync.WaitGroup
	outs := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, st := postRun(t, ts.URL, body)
			outs[i], _ = fetchResult(t, ts.URL, st.ID)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if !bytes.Equal(outs[i], cold) {
			t.Fatalf("concurrent body %d differs from cold body", i)
		}
	}
	if loads := scrapeMetric(t, ts.URL, "mobileqoe_cache_engine_results_loads"); loads != 1 {
		t.Fatalf("result cache loaded %g times for identical requests, want 1", loads)
	}
}

func TestServeRequestErrors(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1, QueueDepth: 4, Parallel: 1})
	for name, body := range map[string]string{
		"bad json":       `{`,
		"unknown field":  `{"experiment": "fig3a", "bogus": 1}`,
		"no kind":        `{}`,
		"unknown exp":    `{"experiment": "fig99"}`,
		"local path":     `{"scenario_path": "/etc/passwd"}`,
		"fault ref file": `{"scenario": {"name": "f", "title": "t", "device": "nexus4", "workload": {"kind": "page"}, "axis": {"param": "clock_mhz", "values": [594]}, "fault_plan": "x.json"}}`,
		"negative pages": `{"experiment": "fig3a", "pages": -1}`,
		"huge trials":    `{"experiment": "table1", "trials": 1000000000000}`,
		"huge shards":    `{"fleet": {"name": "huge", "population": 1000000000000, "shards": 1000000000000, "device_mix": [{"device": "pixel2", "weight": 1}], "workloads": [{"kind": "page", "weight": 1}]}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/runs/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestServeHugeTimeoutClamped: a timeout_s far beyond time.Duration's range
// is accepted and the job completes under the clamped timeout
// (TestHugeTimeoutGetsMaxTimeout in internal/engine pins its value).
func TestServeHugeTimeoutClamped(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1, QueueDepth: 4, Parallel: 1, MaxTimeout: 2 * time.Minute})
	code, st := postRun(t, ts.URL, `{"experiment": "table1", "timeout_s": 1e300}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%+v), want 202", code, st)
	}
	fetchResult(t, ts.URL, st.ID)
}

// TestServeBuiltinFaultPlan: a served scenario may name the built-in
// fault plan; only file references are refused (TestServeRequestErrors).
func TestServeBuiltinFaultPlan(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1, QueueDepth: 4, Parallel: 1})
	code, st := postRun(t, ts.URL, `{"scenario": {"name": "f", "title": "t", "device": "nexus4", "workload": {"kind": "page"}, "axis": {"param": "clock_mhz", "values": [1512]}, "fault_plan": "default"}, "pages": 1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%+v), want 202", code, st)
	}
	fetchResult(t, ts.URL, st.ID)
}

func TestServeEventsStreamValidates(t *testing.T) {
	ts, _ := newTestServer(t, engine.Config{Workers: 1, QueueDepth: 4, Parallel: 2, Tool: "qoesimd-test"})
	_, st := postRun(t, ts.URL, submitBody(9))

	// Follow the stream while the job runs; it ends when the log closes.
	resp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("events content type %q", ct)
	}
	streamed, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read events: %v", err)
	}
	counts, err := runlog.Validate(bytes.NewReader(streamed))
	if err != nil {
		t.Fatalf("streamed log invalid: %v\n%s", err, streamed)
	}
	if counts.Cells != 1 || !counts.HasSummary || counts.Summary.Status != "ok" {
		t.Fatalf("streamed log counts = %+v", counts)
	}
	if counts.Manifest.Tool != "qoesimd-test" {
		t.Fatalf("manifest tool = %q", counts.Manifest.Tool)
	}
}

func TestServeHealthAndMetricsEndpoints(t *testing.T) {
	ts, eng := newTestServer(t, engine.Config{Workers: 1, QueueDepth: 4, Parallel: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"mobileqoe_engine_requests",
		"mobileqoe_cache_engine_results_hits",
		"mobileqoe_cache_webpage_corpus_hits",
		"mobileqoe_cache_script_regex_hits",
		"mobileqoe_run_elapsed_ms",
		"mobileqoe_go_alloc_bytes_total",
		"mobileqoe_go_gc_pause_ms_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
	// Served, run_elapsed_ms is the server's uptime, and its HELP says so.
	if help := "# HELP mobileqoe_run_elapsed_ms wall time since the command's run or the qoesimd server started\n"; !strings.Contains(string(body), help) {
		t.Fatalf("/metrics lacks %q:\n%s", help, body)
	}
	// The server runs jobs, not a run of cells: the engine counters count
	// them, and no run_cells family mislabels them as cells.
	for _, absent := range []string{"mobileqoe_run_cells_done", "mobileqoe_run_cells_total"} {
		if strings.Contains(string(body), absent) {
			t.Fatalf("/metrics carries %s:\n%s", absent, body)
		}
	}

	// Draining flips healthz to 503 and submits to 503.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := eng.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", resp.StatusCode)
	}
	code, _ := postRun(t, ts.URL, submitBody(1))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d, want 503", code)
	}
}
