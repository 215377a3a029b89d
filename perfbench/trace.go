package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark makes across a layer boundary. Spans
// of one operation share Req; Parent is the id of the enclosing span (0 for
// an operation's root). Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and named per-layer samples in memory until the run
// ends. A nil *tracer records nothing, so untraced operations pay one nil
// check per boundary.
type tracer struct {
	t0   time.Time
	reqs atomic.Int64

	mu      sync.Mutex
	spans   []span
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}}
}

// newReq returns a fresh operation id (0 when tracing is off).
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return time.Duration(now - t.spans[id-1].Start)
}

// record adds a span for a call the callee timed itself, such as a runner
// cell or a fleet shard reported through a progress callback.
func (t *tracer) record(name string, parent int, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// sample appends one observation of a per-layer metric.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// median returns the median of one sampled metric (0 when unsampled).
func (t *tracer) median(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return quantile(t.samples[name], 0.5)
}

// medians returns the median of every sampled per-layer metric.
func (t *tracer) medians() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.samples))
	for name, vs := range t.samples {
		out[name] = quantile(vs, 0.5)
	}
	return out
}

// selfTimes sums each layer's self time in milliseconds: a span's duration
// minus the part of it that its child spans cover. A layer is the span name
// up to its first dot.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self) / 1e6
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent. Children of one span may overlap (parallel runner cells).
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curStart, curEnd, open = s, e, true
		case s > curEnd:
			total += curEnd - curStart
			curStart, curEnd = s, e
		case e > curEnd:
			curEnd = e
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// writeSpans writes every span as one JSON document.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printSelfTimes writes the per-layer self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	var total float64
	for l, v := range self {
		layers = append(layers, l)
		total += v
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "perfbench: self time by layer (%d spans)\n", len(t.spans))
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %10.1f ms %5.1f%%\n", l, self[l], 100*self[l]/total)
	}
}
