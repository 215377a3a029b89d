// Package trace is the stack's observability layer: a deterministic,
// zero-dependency tracer plus a metrics registry, threaded through the
// discrete-event kernel and every simulator.
//
// The design follows the paper's own methodology — WProf dependency graphs,
// CPU activity traces, Monsoon power timelines — where *instrumentation* is
// what turns end-of-run scalars into attribution ("is it the network or the
// device?"). A Tracer records spans, instant events, and counter samples at
// virtual timestamps; because every timestamp comes from the simulation
// clock (never the wall clock), two runs at the same seed produce
// byte-identical traces, which makes traces safe for golden tests.
//
// Exports:
//
//   - WriteJSON emits the Chrome trace-event format, loadable in
//     chrome://tracing and Perfetto (ui.perfetto.dev); category = emitting
//     package, pid = simulated device, tid = thread/core lane.
//   - WriteASCII renders a compact per-lane timeline for terminals.
//
// Emission is nil-safe: every method on a nil *Tracer (and nil *Metrics,
// *Counter, *Histogram) is a no-op, so instrumented hot paths pay a single
// nil check when tracing is off and zero allocations.
package trace

import (
	"sort"
	"sync"
	"time"
)

// Arg is one numeric span/instant annotation. Args are stored as ordered
// slices, not maps, so export order is deterministic.
type Arg struct {
	Key string
	Val float64
}

// Kind discriminates stored events.
type Kind uint8

// Event kinds.
const (
	KindSpan    Kind = iota // a begin/end interval ("X" in Chrome terms)
	KindInstant             // a point event ("i")
	KindCounter             // a counter sample ("C")
	KindMeta                // process/thread naming metadata ("M")
)

// Event is one recorded trace record. Ts and Dur are virtual time.
type Event struct {
	Kind Kind
	Cat  string // emitting package ("sim", "cpu", "netsim", ...)
	Name string
	Pid  int
	Tid  int
	Ts   time.Duration
	Dur  time.Duration // spans only
	Args []Arg
	Meta string // KindMeta payload: the process/thread display name
}

// End returns the span's end time (Ts for non-spans).
func (e Event) End() time.Duration { return e.Ts + e.Dur }

// Tracer collects events. The zero value of *Tracer (nil) is the no-op
// default. A Tracer is safe for concurrent emission (a mutex guards the
// buffer), but concurrent emitters interleave in completion order, so a
// deterministic byte-identical trace needs one tracer per emitting cell;
// Append then combines the cells' tracers in cell order, which is how
// cmd/qoesim builds one combined trace at any worker count.
type Tracer struct {
	mu      sync.Mutex
	events  []Event
	nextPid int
	nextTid map[int]int
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{nextTid: map[int]int{}} }

// Process allocates a new pid and names it (one pid per simulated device).
// On a nil tracer it returns 0.
func (t *Tracer) Process(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextPid++
	pid := t.nextPid
	t.events = append(t.events, Event{Kind: KindMeta, Name: "process_name", Pid: pid, Meta: name})
	return pid
}

// Thread allocates a new tid lane under pid and names it. Each call returns
// a fresh lane, so two threads with the same display name render separately.
// On a nil tracer it returns 0.
func (t *Tracer) Thread(pid int, name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextTid[pid]++
	tid := t.nextTid[pid]
	t.events = append(t.events, Event{Kind: KindMeta, Name: "thread_name", Pid: pid, Tid: tid, Meta: name})
	return tid
}

// Span records a completed interval [start, end] on a lane. Timestamps are
// virtual; end < start is clamped to a zero-duration span at start.
func (t *Tracer) Span(cat, name string, pid, tid int, start, end time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.mu.Lock()
	t.events = append(t.events, Event{Kind: KindSpan, Cat: cat, Name: name,
		Pid: pid, Tid: tid, Ts: start, Dur: end - start, Args: args})
	t.mu.Unlock()
}

// Instant records a point event.
func (t *Tracer) Instant(cat, name string, pid, tid int, ts time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{Kind: KindInstant, Cat: cat, Name: name,
		Pid: pid, Tid: tid, Ts: ts, Args: args})
	t.mu.Unlock()
}

// Counter records a sample of a named counter series.
func (t *Tracer) Counter(cat, name string, pid int, ts time.Duration, value float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{Kind: KindCounter, Cat: cat, Name: name,
		Pid: pid, Ts: ts, Args: []Arg{{Key: "value", Val: value}}})
	t.mu.Unlock()
}

// Append copies o's events onto the end of t, as if o's emitters had
// written to t directly after everything t already holds: o's pids (those
// > 0) move past t's, each keeping its tid lanes, and pid-0 events are
// copied unchanged. Appending per-cell tracers in cell order therefore
// reproduces the trace one shared tracer would record running the cells
// sequentially. A nil or empty o is a no-op; o is not modified.
func (t *Tracer) Append(o *Tracer) {
	if t == nil || o == nil || o == t {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	base := t.nextPid
	for _, e := range o.events {
		if e.Pid > 0 {
			e.Pid += base
		}
		t.events = append(t.events, e)
	}
	for pid, n := range o.nextTid {
		t.nextTid[pid+base] = n
	}
	t.nextPid += o.nextPid
}

// Len returns the number of recorded events (metadata included).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a stable-sorted copy of the buffer: metadata first, then
// events by ascending timestamp, ties in emission order. Exports use this,
// which is what makes exported timestamps monotonic.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		mi, mj := out[i].Kind == KindMeta, out[j].Kind == KindMeta
		if mi != mj {
			return mi
		}
		if mi {
			return false // both metadata: keep emission order
		}
		return out[i].Ts < out[j].Ts
	})
	return out
}
