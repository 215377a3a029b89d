package telemetry

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobileqoe/internal/runlog"
	"mobileqoe/internal/stats"
	"mobileqoe/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// buildRegistry returns a fixed registry covering every exposed shape:
// counters (including a name needing sanitization), a histogram, and an
// empty-history metric is deliberately absent (lookups never create).
func buildRegistry() *trace.Metrics {
	m := trace.NewMetrics()
	m.Counter("sim.events").Add(4096)
	m.Counter("fault.injected.cpu-stall").Add(3)
	h := m.Histogram("browser.plt_ms")
	for _, v := range []float64{120, 250, 250, 480, 1900, 12000} {
		h.Observe(v)
	}
	return m
}

// TestGoldenExposition pins the exact exposition bytes. Regenerate with
//
//	go test ./internal/telemetry -run TestGolden -update
func TestGoldenExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := Render(&buf, buildRegistry()); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if err := Lint(buf.String()); err != nil {
		t.Fatalf("rendered exposition does not lint: %v\n%s", err, got)
	}
	path := filepath.Join("testdata", "exposition.golden")
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
		t.Errorf("exposition changed; rerun with -update if intended.\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestRenderShardInsensitive pins the -parallel contract: rendering a
// registry merged from shards (in any order) is byte-identical to rendering
// one registry that saw every observation — the sketch merge is exact.
func TestRenderShardInsensitive(t *testing.T) {
	direct := buildRegistry()
	shards := []*trace.Metrics{
		trace.NewMetrics(),
		trace.NewMetrics(),
		trace.NewMetrics(),
	}
	shards[0].Counter("sim.events").Add(4000)
	shards[2].Counter("sim.events").Add(96)
	shards[1].Counter("fault.injected.cpu-stall").Add(3)
	for i, v := range []float64{120, 250, 250, 480, 1900, 12000} {
		shards[(i*2)%3].Histogram("browser.plt_ms").Observe(v)
	}
	merged := trace.NewMetrics()
	for _, i := range []int{2, 0, 1} {
		merged.Merge(shards[i])
	}
	var a, b bytes.Buffer
	if err := Render(&a, direct); err != nil {
		t.Fatal(err)
	}
	if err := Render(&b, merged); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("shard-merged exposition differs:\n--- direct ---\n%s--- merged ---\n%s", a.String(), b.String())
	}
}

func TestRenderHealthLints(t *testing.T) {
	var buf bytes.Buffer
	var wall stats.HistSketch
	for _, ms := range []float64{40, 50, 60} {
		wall.Observe(ms)
	}
	RenderCells(&buf, 5, 12)
	RenderHealth(&buf, Health{ElapsedMS: 1234.5, Wall: &wall, Runtime: runlog.CaptureRuntime()})
	if err := Lint(buf.String()); err != nil {
		t.Fatalf("health exposition does not lint: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"mobileqoe_run_cells_done 5\n", "mobileqoe_run_cell_wall_p50_ms 50\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRenderRejectsNameCollision(t *testing.T) {
	m := trace.NewMetrics()
	m.Counter("a.b").Add(1)
	m.Counter("a_b").Add(2)
	if err := Render(io.Discard, m); err == nil {
		t.Fatal("colliding sanitized names must not render")
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"bad name", "1up 3\n", "invalid metric name"},
		{"bad value", "up one\n", "not a float"},
		{"no value", "up\n", "sample without value"},
		{"bad type", "# TYPE up widget\n", "unknown type"},
		{"dup type", "# TYPE up gauge\n# TYPE up gauge\nup 1\n", "duplicate TYPE"},
		{"type after sample", "up 1\n# TYPE up gauge\n", "after its samples"},
		{"unquoted label", `up{job=x} 1` + "\n", "not quoted"},
		{"bad label name", `up{1job="x"} 1` + "\n", "invalid label name"},
	}
	for _, c := range cases {
		if err := Lint(c.text); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Lint = %v, want error containing %q", c.name, err, c.want)
		}
	}
	good := "# HELP up is the scrape up\n# TYPE up gauge\nup 1\n" +
		"# TYPE lat summary\nlat{quantile=\"0.5\"} 0.3\nlat_sum 12.5\nlat_count 42\n"
	if err := Lint(good); err != nil {
		t.Errorf("Lint(good) = %v", err)
	}
}

func TestSinkFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	s, err := NewSink(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var buf bytes.Buffer
	if err := Render(&buf, buildRegistry()); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatal("file snapshot differs from rendered bytes")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("atomic-rename temp file left behind")
	}
	if err := Lint(string(got)); err != nil {
		t.Fatalf("snapshot does not lint: %v", err)
	}
}

func TestSinkHTTP(t *testing.T) {
	s, err := NewSink("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var buf bytes.Buffer
	if err := Render(&buf, buildRegistry()); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", s.ln.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want the v0.0.4 exposition type", ct)
	}
	if !bytes.Equal(body, buf.Bytes()) {
		t.Fatal("/metrics body differs from rendered bytes")
	}
	if err := Lint(string(body)); err != nil {
		t.Fatalf("scraped exposition does not lint: %v", err)
	}
	resp, err = http.Get(fmt.Sprintf("http://%s/healthz", s.ln.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(hb) != "ok\n" || resp.StatusCode != 200 {
		t.Fatalf("/healthz = %d %q, want 200 ok", resp.StatusCode, hb)
	}
}

func TestIsAddr(t *testing.T) {
	for target, want := range map[string]bool{
		":9090":          true,
		"127.0.0.1:9090": true,
		"localhost:80":   true,
		"metrics.prom":   false,
		"out/m.txt":      false,
		":not-a-port":    false,
		"":               false,
	} {
		if got := IsAddr(target); got != want {
			t.Errorf("IsAddr(%q) = %v, want %v", target, got, want)
		}
	}
}

func TestSinkNilSafe(t *testing.T) {
	var s *Sink
	if err := s.Update([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
