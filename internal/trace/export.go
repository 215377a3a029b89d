package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"mobileqoe/internal/atomicfile"
)

// Chrome trace-event export. The JSON is written by hand, field by field in
// a fixed order with fixed float formatting, so a given event sequence
// always serializes to the same bytes — the property the determinism golden
// tests pin. The output is the "JSON array" flavor of the trace-event
// format, loadable in chrome://tracing and Perfetto.

// WriteJSON writes the full event buffer as a Chrome trace-event array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := t.Events()
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, "[\n"); err != nil {
		return err
	}
	for i, e := range events {
		writeEvent(bw, e)
		if i < len(events)-1 {
			bw.WriteByte(',')
		}
		bw.WriteByte('\n')
	}
	if _, err := io.WriteString(bw, "]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile renders the trace (see WriteJSON) and lands it at path
// atomically, so a reader — a monitoring pipeline following the run log's
// exemplar references — sees either no file or the whole trace.
func (t *Tracer) WriteFile(path string) error {
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		return err
	}
	return atomicfile.Write(path, buf.Bytes(), 0o644)
}

// usec renders a virtual timestamp in microseconds with nanosecond
// precision, the trace-event format's time unit.
func usec(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/1e3, 'f', 3, 64)
}

func writeEvent(bw *bufio.Writer, e Event) {
	switch e.Kind {
	case KindMeta:
		fmt.Fprintf(bw, `{"ph":"M","name":%s,"pid":%d,"tid":%d,"args":{"name":%s}}`,
			quote(e.Name), e.Pid, e.Tid, quote(e.Meta))
		return
	case KindSpan:
		fmt.Fprintf(bw, `{"ph":"X","cat":%s,"name":%s,"pid":%d,"tid":%d,"ts":%s,"dur":%s`,
			quote(e.Cat), quote(e.Name), e.Pid, e.Tid, usec(e.Ts), usec(e.Dur))
	case KindInstant:
		fmt.Fprintf(bw, `{"ph":"i","s":"t","cat":%s,"name":%s,"pid":%d,"tid":%d,"ts":%s`,
			quote(e.Cat), quote(e.Name), e.Pid, e.Tid, usec(e.Ts))
	case KindCounter:
		fmt.Fprintf(bw, `{"ph":"C","cat":%s,"name":%s,"pid":%d,"tid":0,"ts":%s`,
			quote(e.Cat), quote(e.Name), e.Pid, usec(e.Ts))
	}
	if len(e.Args) > 0 {
		bw.WriteString(`,"args":{`)
		for i, a := range e.Args {
			if i > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, `%s:%s`, quote(a.Key), strconv.FormatFloat(a.Val, 'g', -1, 64))
		}
		bw.WriteByte('}')
	}
	bw.WriteByte('}')
}

// quote JSON-escapes a string. Names are ASCII identifiers; strconv.Quote's
// escaping is JSON-compatible for them.
func quote(s string) string { return strconv.Quote(s) }

// ----- ASCII timeline -----

// WriteASCII renders a compact per-lane timeline: one row per (pid, tid)
// lane that carries spans, bucketed over the trace's time range, with
// density glyphs (' ' idle, '.' <25% busy, ':' <50%, '=' <75%, '#' busier).
// width is the number of time buckets; <= 0 selects 80.
func (t *Tracer) WriteASCII(w io.Writer, width int) error {
	if width <= 0 {
		width = 80
	}
	events := t.Events()

	// Lane discovery and naming.
	type laneKey struct{ pid, tid int }
	procNames := map[int]string{}
	laneNames := map[laneKey]string{}
	var lanes []laneKey
	seen := map[laneKey]bool{}
	var tmin, tmax time.Duration
	first := true
	for _, e := range events {
		switch e.Kind {
		case KindMeta:
			if e.Name == "process_name" {
				procNames[e.Pid] = e.Meta
			} else if e.Name == "thread_name" {
				laneNames[laneKey{e.Pid, e.Tid}] = e.Meta
			}
			continue
		case KindSpan:
			k := laneKey{e.Pid, e.Tid}
			if !seen[k] {
				seen[k] = true
				lanes = append(lanes, k)
			}
		default:
			continue
		}
		if first || e.Ts < tmin {
			tmin = e.Ts
			first = false
		}
		if e.End() > tmax {
			tmax = e.End()
		}
	}
	if len(lanes) == 0 {
		_, err := fmt.Fprintln(w, "trace: no spans recorded")
		return err
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].pid != lanes[j].pid {
			return lanes[i].pid < lanes[j].pid
		}
		return lanes[i].tid < lanes[j].tid
	})
	span := tmax - tmin
	if span <= 0 {
		span = 1
	}
	bucket := float64(span) / float64(width)

	// Per-lane busy fraction per bucket.
	busy := map[laneKey][]float64{}
	for _, k := range lanes {
		busy[k] = make([]float64, width)
	}
	for _, e := range events {
		if e.Kind != KindSpan {
			continue
		}
		b := busy[laneKey{e.Pid, e.Tid}]
		lo := float64(e.Ts - tmin)
		hi := float64(e.End() - tmin)
		if hi == lo {
			hi = lo + 1 // make zero-duration spans visible
		}
		for i := int(lo / bucket); i < width && float64(i)*bucket < hi; i++ {
			bs, be := float64(i)*bucket, float64(i+1)*bucket
			ov := min64(hi, be) - max64(lo, bs)
			if ov > 0 {
				b[i] += ov / bucket
			}
		}
	}

	fmt.Fprintf(w, "trace: %d events, %.3fs - %.3fs\n",
		len(events), tmin.Seconds(), tmax.Seconds())
	lastPid := -1
	for _, k := range lanes {
		if k.pid != lastPid {
			lastPid = k.pid
			name := procNames[k.pid]
			if name == "" {
				name = "?"
			}
			fmt.Fprintf(w, "pid %d %s\n", k.pid, name)
		}
		name := laneNames[k]
		if name == "" {
			name = fmt.Sprintf("tid %d", k.tid)
		}
		if len(name) > 18 {
			name = name[:18]
		}
		row := make([]byte, width)
		for i, f := range busy[k] {
			switch {
			case f <= 0:
				row[i] = ' '
			case f < 0.25:
				row[i] = '.'
			case f < 0.5:
				row[i] = ':'
			case f < 0.75:
				row[i] = '='
			default:
				row[i] = '#'
			}
		}
		if _, err := fmt.Fprintf(w, "  %-18s |%s|\n", name, row); err != nil {
			return err
		}
	}
	return nil
}

func min64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
