// Package telemetry renders the simulator's metrics registry and run health
// in the Prometheus text exposition format, version 0.0.4 — the lingua franca
// of scrape-based monitoring — and ships the rendered snapshot through a Sink
// (periodic file snapshot, or a tiny HTTP listener serving /metrics and
// /healthz).
//
// The renderer is a pure function of the registry: names are sorted, values
// format with exact round-trip precision, and bounded-sketch quantiles are
// exactly mergeable, so a -parallel run's exposition is byte-identical to a
// sequential run's (pinned by the golden test). Wall-clock data (run
// progress, Go runtime counters) renders through the separate RenderCells
// and RenderHealth so deterministic and host-timing families never mix in
// one comparison.
//
// Lint validates exposition text against the v0.0.4 grammar — name charset,
// HELP/TYPE comment shape, one TYPE per family declared before its samples,
// label syntax, parseable sample values — so tests can assert "this snapshot
// is scrapeable" without a Prometheus binary in the container.
package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"mobileqoe/internal/runlog"
	"mobileqoe/internal/stats"
	"mobileqoe/internal/trace"
)

// prefix namespaces every exposed family.
const prefix = "mobileqoe"

// quantiles are the summary quantiles exposed for every histogram,
// matching the registry's table columns.
var quantiles = []float64{0.5, 0.9, 0.99}

// promName sanitizes a registry metric name into the Prometheus name charset
// [a-zA-Z_:][a-zA-Z0-9_:]* under prefix: every invalid byte becomes '_'
// ("sim.virtual_ms" → "mobileqoe_sim_virtual_ms").
func promName(metric string) string {
	var b strings.Builder
	b.WriteString(prefix)
	b.WriteByte('_')
	for i := 0; i < len(metric); i++ {
		c := metric[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Render writes the registry as exposition text. Counters render as counter
// families; histograms as summary families with p50/p90/p99 quantile
// samples plus _min and _max gauge families. Two registry names that
// sanitize to the same family name are an error — silently merging
// families would corrupt the scrape.
func Render(w io.Writer, m *trace.Metrics) error {
	seen := map[string]string{}
	family := func(metric string) (string, error) {
		name := promName(metric)
		if prev, ok := seen[name]; ok {
			return "", fmt.Errorf("telemetry: registry metrics %q and %q both expose as %s", prev, metric, name)
		}
		seen[name] = metric
		return name, nil
	}
	for _, metric := range m.Names() {
		name, err := family(metric)
		if err != nil {
			return err
		}
		if c := m.LookupCounter(metric); c != nil {
			fmt.Fprintf(w, "# HELP %s registry counter %q\n", name, metric)
			fmt.Fprintf(w, "# TYPE %s counter\n", name)
			fmt.Fprintf(w, "%s %s\n", name, num(c.Value()))
			continue
		}
		h := m.LookupHistogram(metric)
		fmt.Fprintf(w, "# HELP %s registry histogram %q\n", name, metric)
		fmt.Fprintf(w, "# TYPE %s summary\n", name)
		for _, q := range quantiles {
			fmt.Fprintf(w, "%s{quantile=%q} %s\n", name, num(q), num(h.Quantile(q)))
		}
		fmt.Fprintf(w, "%s_sum %s\n", name, num(h.Sum()))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
		for _, g := range []struct {
			suffix string
			v      float64
		}{{"min", h.Min()}, {"max", h.Max()}} {
			gname, err := family(metric + "_" + g.suffix)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "# HELP %s registry histogram %q %s\n", gname, metric, g.suffix)
			fmt.Fprintf(w, "# TYPE %s gauge\n", gname)
			fmt.Fprintf(w, "%s %s\n", gname, num(g.v))
		}
	}
	return nil
}

// Health is the wall-clock snapshot RenderHealth exposes: the time since
// the run or server started, the wall times of the cells run so far, and
// the Go runtime block health records carry.
type Health struct {
	ElapsedMS float64
	// Wall holds the freshly executed cells' wall times in ms; nil or empty
	// omits the cell wall-time quantiles.
	Wall    *stats.HistSketch
	Runtime runlog.RuntimeSnapshot
}

// emit writes one single-sample family.
func emit(w io.Writer, name, typ, help string, v float64) {
	full := prefix + "_" + name
	fmt.Fprintf(w, "# HELP %s %s\n", full, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", full, typ)
	fmt.Fprintf(w, "%s %s\n", full, num(v))
}

// RenderCells writes a run's progress families: the (experiment, trial)
// cells completed so far and the run's total. It is wall-clock class, like
// RenderHealth.
func RenderCells(w io.Writer, done, total int) {
	emit(w, "run_cells_done", "gauge", "completed (experiment, trial) cells", float64(done))
	emit(w, "run_cells_total", "gauge", "total cells in this run", float64(total))
}

// RenderHealth writes the health families. Everything here is wall-clock
// class — never compare these bytes across runs.
func RenderHealth(w io.Writer, h Health) {
	emit(w, "run_elapsed_ms", "gauge", "wall time since the command's run or the qoesimd server started", h.ElapsedMS)
	if h.Wall != nil && h.Wall.N() > 0 {
		emit(w, "run_cell_wall_p50_ms", "gauge", "median wall time of a cell run so far", h.Wall.Quantile(0.5))
		emit(w, "run_cell_wall_p95_ms", "gauge", "95th percentile wall time of a cell run so far", h.Wall.Quantile(0.95))
	}
	emit(w, "go_gc_cycles_total", "counter", "completed GC cycles", float64(h.Runtime.NumGC))
	emit(w, "go_gc_pause_ms_total", "counter", "total GC pause time", h.Runtime.GCPauseTotalMS)
	emit(w, "go_heap_peak_bytes", "gauge", "peak heap memory obtained from the OS", float64(h.Runtime.PeakHeapBytes))
	emit(w, "go_alloc_bytes_total", "counter", "cumulative bytes allocated", float64(h.Runtime.AllocTotalBytes))
	emit(w, "go_heap_objects", "gauge", "live heap objects", float64(h.Runtime.HeapObjects))
}

// Lint validates exposition text against the v0.0.4 grammar and returns the
// first problem found, naming its 1-based line.
func Lint(text string) error {
	typed := map[string]string{} // family → declared type
	sampled := map[string]bool{} // family → has samples
	helped := map[string]bool{}  // family → HELP seen
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		n := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 2 {
				continue // free-form comment
			}
			switch fields[1] {
			case "HELP":
				if len(fields) < 3 || !validName(fields[2]) {
					return fmt.Errorf("telemetry: line %d: malformed HELP", n)
				}
				if helped[fields[2]] {
					return fmt.Errorf("telemetry: line %d: duplicate HELP for %s", n, fields[2])
				}
				helped[fields[2]] = true
			case "TYPE":
				if len(fields) != 4 || !validName(fields[2]) {
					return fmt.Errorf("telemetry: line %d: malformed TYPE", n)
				}
				switch fields[3] {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					return fmt.Errorf("telemetry: line %d: unknown type %q", n, fields[3])
				}
				if _, dup := typed[fields[2]]; dup {
					return fmt.Errorf("telemetry: line %d: duplicate TYPE for %s", n, fields[2])
				}
				if sampled[fields[2]] {
					return fmt.Errorf("telemetry: line %d: TYPE for %s after its samples", n, fields[2])
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		name, rest, err := splitSample(line)
		if err != nil {
			return fmt.Errorf("telemetry: line %d: %v", n, err)
		}
		// A summary's _sum/_count samples belong to the base family.
		base := name
		for _, suf := range []string{"_sum", "_count", "_bucket"} {
			if t, ok := typed[strings.TrimSuffix(name, suf)]; ok && strings.HasSuffix(name, suf) &&
				(t == "summary" || t == "histogram") {
				base = strings.TrimSuffix(name, suf)
			}
		}
		sampled[base] = true
		if _, err := strconv.ParseFloat(rest, 64); err != nil {
			return fmt.Errorf("telemetry: line %d: sample value %q is not a float", n, rest)
		}
	}
	return nil
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// splitSample parses `name[{labels}] value` and returns the name and the
// value token (timestamps are accepted and dropped).
func splitSample(line string) (name, value string, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", "", fmt.Errorf("unterminated label set")
		}
		if err := lintLabels(rest[i+1 : j]); err != nil {
			return "", "", err
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", "", fmt.Errorf("sample without value")
		}
		name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	if !validName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", fmt.Errorf("want value [timestamp], got %q", rest)
	}
	return name, fields[0], nil
}

func lintLabels(s string) error {
	for _, pair := range splitLabelPairs(s) {
		eq := strings.IndexByte(pair, '=')
		if eq <= 0 {
			return fmt.Errorf("malformed label %q", pair)
		}
		k, v := pair[:eq], pair[eq+1:]
		if !validName(k) || strings.Contains(k, ":") {
			return fmt.Errorf("invalid label name %q", k)
		}
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return fmt.Errorf("label value %q is not quoted", v)
		}
	}
	return nil
}

// splitLabelPairs splits a label body on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	depth, start := false, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" {
		out = append(out, t)
	}
	return out
}
