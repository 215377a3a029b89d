package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// buildScenario emits a small fixed event sequence covering every event
// kind, deliberately out of timestamp order to exercise the export sort.
func buildScenario() *Tracer {
	tr := New()
	dev := tr.Process("Nexus4@1512MHz")
	kern := tr.Thread(dev, "sim.kernel")
	main := tr.Thread(dev, "cpu:browser-main")
	tr.Span("cpu", "task:parse-seg0", dev, main, 10*time.Millisecond, 22*time.Millisecond,
		Arg{"cycles", 3.5e7})
	tr.Span("sim", "steps[256]", dev, kern, 0, 40*time.Millisecond, Arg{"queue_depth", 12})
	tr.Instant("netsim", "tcp-loss", dev, main, 15*time.Millisecond)
	tr.Counter("cpu", "freq.cluster0", dev, 5*time.Millisecond, 1512)
	tr.Counter("energy", "power.cpu", dev, 30*time.Millisecond, 1.18)
	return tr
}

// TestGoldenChromeJSON pins the exact serialized bytes of the Chrome
// trace-event export. Regenerate with
//
//	go test ./internal/trace -run TestGolden -update
func TestGoldenChromeJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := buildScenario().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	path := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("chrome trace export changed; rerun with -update if intended.\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// chromeEvent mirrors the trace-event schema fields the viewers require.
type chromeEvent struct {
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat"`
	Name string         `json:"name"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	Args map[string]any `json:"args"`
}

func TestExportSchemaAndMonotonicTimestamps(t *testing.T) {
	var buf bytes.Buffer
	if err := buildScenario().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not a JSON array: %v", err)
	}
	last := -1.0
	sawPhases := map[string]bool{}
	for i, raw := range events {
		var e chromeEvent
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		sawPhases[e.Ph] = true
		if e.Ph == "" || e.Pid == nil {
			t.Fatalf("event %d missing ph/pid: %s", i, raw)
		}
		if e.Ph == "M" {
			continue
		}
		if e.Cat == "" || e.Name == "" || e.Ts == nil || e.Tid == nil {
			t.Fatalf("event %d missing cat/name/ts/tid: %s", i, raw)
		}
		if *e.Ts < last {
			t.Fatalf("event %d: ts %f not monotonic (prev %f)", i, *e.Ts, last)
		}
		last = *e.Ts
		if e.Ph == "X" && e.Dur == nil {
			t.Fatalf("span event %d missing dur: %s", i, raw)
		}
	}
	for _, ph := range []string{"M", "X", "i", "C"} {
		if !sawPhases[ph] {
			t.Errorf("scenario produced no %q events", ph)
		}
	}
}

func TestExportDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildScenario().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildScenario().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical scenarios exported different bytes")
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	pid := tr.Process("x")
	tid := tr.Thread(pid, "y")
	tr.Span("c", "n", pid, tid, 0, time.Second)
	tr.Instant("c", "n", pid, tid, 0)
	tr.Counter("c", "n", pid, 0, 1)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Error("nil tracer recorded events")
	}
	var buf bytes.Buffer
	if err := tr.WriteASCII(&buf, 40); err != nil {
		t.Fatal(err)
	}
}

// TestAppend checks Append renumbers the appended tracer's pids past the
// receiver's, keeps each pid's tid lanes, leaves pid-0 events alone, treats
// an empty tracer as a no-op, and equals emitting into one shared tracer.
func TestAppend(t *testing.T) {
	emit := func(tr *Tracer) {
		p := tr.Process("dev")
		a := tr.Thread(p, "a")
		tr.Span("cpu", "work", p, a, 0, time.Millisecond)
		q := tr.Process("peer")
		tr.Thread(q, "b")
		tr.Instant("sim", "global", 0, 0, 2*time.Millisecond)
	}
	shared := New()
	emit(shared)
	emit(shared)
	// A lane allocated after both cells must not collide with an appended one.
	shared.Thread(3, "late")

	combined := New()
	combined.Append(New()) // empty: no-op
	first, second := New(), New()
	emit(first)
	emit(second)
	combined.Append(first)
	combined.Append(second)
	combined.Append(New())
	combined.Thread(3, "late")

	var want, got bytes.Buffer
	if err := shared.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := combined.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("appended trace differs from shared:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
	var pids, zero int
	for _, e := range combined.Events() {
		if e.Kind == KindMeta && e.Name == "process_name" {
			pids++
			if e.Pid != pids {
				t.Errorf("process %q has pid %d, want %d", e.Meta, e.Pid, pids)
			}
		}
		if e.Pid == 0 {
			zero++
		}
		if e.Kind == KindMeta && e.Name == "thread_name" && e.Meta == "late" && e.Tid != 2 {
			t.Errorf("late lane on pid 3 got tid %d, want 2", e.Tid)
		}
	}
	if pids != 4 || zero != 2 {
		t.Errorf("got %d processes and %d pid-0 events, want 4 and 2", pids, zero)
	}
	if second.Len() != 6 || second.Events()[0].Pid != 1 {
		t.Error("Append modified its argument")
	}
}

func TestASCIITimeline(t *testing.T) {
	var buf bytes.Buffer
	if err := buildScenario().WriteASCII(&buf, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"pid 1 Nexus4@1512MHz", "sim.kernel", "cpu:browser-main"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsRegistry(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("sim.events")
	c.Add(3)
	c.Add(2)
	if got := m.Counter("sim.events").Value(); got != 5 {
		t.Errorf("counter = %v, want 5", got)
	}
	h := m.Histogram("sim.queue_depth")
	for _, v := range []float64{4, 9, 2} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Max() != 9 || h.Mean() != 5 {
		t.Errorf("histogram = count %d max %v mean %v", h.Count(), h.Max(), h.Mean())
	}
}

func TestMetricsMergeDeterministic(t *testing.T) {
	mk := func(c float64, obs ...float64) *Metrics {
		m := NewMetrics()
		m.Counter("events").Add(c)
		for _, v := range obs {
			m.Histogram("depth").Observe(v)
		}
		return m
	}
	merge := func(ms ...*Metrics) string {
		out := NewMetrics()
		for _, m := range ms {
			out.Merge(m)
		}
		return out.Table()
	}
	a, b, c := mk(1, 5, 7), mk(2, 1), mk(4, 9, 3, 2)
	t1 := merge(a, b, c)
	t2 := merge(a, b, c)
	if t1 != t2 {
		t.Error("same merge order produced different tables")
	}
	if !strings.Contains(t1, "events") || !strings.Contains(t1, "depth") {
		t.Errorf("table missing metrics:\n%s", t1)
	}
	// Counter sums and histogram bounds are order-insensitive.
	if merge(a, b, c) != merge(c, a, b) {
		t.Error("merge bounds/sums depended on order")
	}
}

func TestNilMetricsIsNoOp(t *testing.T) {
	var m *Metrics
	m.Counter("x").Add(1)
	m.Histogram("y").Observe(1)
	m.Merge(NewMetrics())
	if m.Table() != "" || m.Names() != nil {
		t.Error("nil metrics produced output")
	}
}
