// Package profile is the analysis layer over internal/trace: it consumes a
// recorded (or re-imported) trace and answers the paper's central question —
// *where* does a slow device spend its extra time? — automatically.
//
// Three consumers are built on one aggregation pass:
//
//   - Profile: per-(process, lane, span-name) virtual-time aggregates with
//     self/total time, the simulated analogue of a sampling profiler's
//     output, plus folded-stack export for flamegraph.pl / speedscope.
//   - Diff: span-by-span alignment of two runs of the same workload (same
//     seed, different device), producing a sorted delta table whose
//     critical-path deltas sum exactly to the ePLT gap — the WProf-style
//     network-vs-device attribution of the gap.
//   - Check: a rule-driven invariant checker asserting trace-level
//     properties (execution-lane spans never overlap, video buffer counters
//     never go negative, stall instants match the metrics registry).
//
// Everything here is deterministic: aggregates are sorted with total
// ordering and floats are formatted with fixed precision, so the same trace
// always renders to the same bytes — profiles and diffs are golden-testable
// just like the traces they consume.
package profile

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mobileqoe/internal/trace"
)

// Entry is one aggregated span name on one lane.
type Entry struct {
	Process string // trace process (device) name
	Lane    string // thread lane name
	Name    string // span name
	Count   int
	Total   time.Duration // summed span durations
	// Self is Total minus time covered by spans nested strictly inside this
	// name's spans on the same lane (partial overlaps are treated as
	// siblings and not subtracted).
	Self   time.Duration
	Cycles float64 // summed "cycles" span annotations
	CritMs float64 // summed "crit_ms" annotations (critical-path share)
}

// Profile is the aggregated view of one trace.
type Profile struct {
	// Entries sorted by Self descending, ties broken by Process, Lane, Name
	// — a total order, so rendering is deterministic.
	Entries []Entry
	// Folded holds the folded-stack lines (see WriteFolded), sorted by
	// stack string.
	Folded []FoldedLine
	// EPLTms sums the plt_ms annotations of every browser load-event in the
	// trace; Loads counts them. For a single-load trace EPLTms is the PLT.
	EPLTms float64
	Loads  int
	// Span covers the trace's event time range.
	Start, End time.Duration
}

// FoldedLine is one collapsed stack: semicolon-separated frames rooted at
// process;lane, weighted by self time (µs) and by self cycles.
type FoldedLine struct {
	Stack  string
	SelfUS int64
	Cycles float64
}

// laneKey identifies one trace lane.
type laneKey struct{ pid, tid int }

// FromTracer builds the profile of a tracer's current event buffer.
func FromTracer(tr *trace.Tracer) *Profile { return FromEvents(tr.Events()) }

// FromEvents builds a profile from a sorted event slice (trace.Events
// order: metadata first, then ascending timestamps).
func FromEvents(events []trace.Event) *Profile {
	p := &Profile{}
	procNames := map[int]string{}
	laneNames := map[laneKey]string{}
	spansByLane := map[laneKey][]trace.Event{}
	var laneOrder []laneKey
	first := true
	for _, e := range events {
		if e.Kind == trace.KindMeta {
			switch e.Name {
			case "process_name":
				procNames[e.Pid] = e.Meta
			case "thread_name":
				laneNames[laneKey{e.Pid, e.Tid}] = e.Meta
			}
			continue
		}
		if first || e.Ts < p.Start {
			p.Start = e.Ts
			first = false
		}
		if e.End() > p.End {
			p.End = e.End()
		}
		switch e.Kind {
		case trace.KindSpan:
			k := laneKey{e.Pid, e.Tid}
			if _, ok := spansByLane[k]; !ok {
				laneOrder = append(laneOrder, k)
			}
			spansByLane[k] = append(spansByLane[k], e)
		case trace.KindInstant:
			if e.Name == "load-event" {
				p.Loads++
				p.EPLTms += argVal(e, "plt_ms")
			}
		}
	}

	entries := map[string]*Entry{}
	folded := map[string]*FoldedLine{}
	for _, k := range laneOrder {
		proc := procNames[k.pid]
		if proc == "" {
			proc = fmt.Sprintf("pid %d", k.pid)
		}
		lane := laneNames[k]
		if lane == "" {
			lane = fmt.Sprintf("tid %d", k.tid)
		}
		aggregateLane(proc, lane, spansByLane[k], entries, folded)
	}

	p.Entries = make([]Entry, 0, len(entries))
	for _, e := range entries {
		p.Entries = append(p.Entries, *e)
	}
	sort.Slice(p.Entries, func(i, j int) bool {
		a, b := p.Entries[i], p.Entries[j]
		if a.Self != b.Self {
			return a.Self > b.Self
		}
		if a.Process != b.Process {
			return a.Process < b.Process
		}
		if a.Lane != b.Lane {
			return a.Lane < b.Lane
		}
		return a.Name < b.Name
	})
	p.Folded = make([]FoldedLine, 0, len(folded))
	for _, f := range folded {
		p.Folded = append(p.Folded, *f)
	}
	sort.Slice(p.Folded, func(i, j int) bool { return p.Folded[i].Stack < p.Folded[j].Stack })
	return p
}

// openSpan is one not-yet-closed span during the lane walk.
type openSpan struct {
	end      time.Duration
	dur      time.Duration
	childDur time.Duration // summed durations of directly nested children
	entry    *Entry
	path     string // folded stack path up to and including this span
	cycles   float64
}

// aggregateLane walks one lane's spans (already sorted by start time,
// stable) maintaining a nesting stack: a span fully contained in the
// currently open span is its child and contributes to the parent's
// childDur; partial overlaps are treated as siblings. Self time and folded
// weights are credited when a span is popped.
func aggregateLane(proc, lane string, spans []trace.Event,
	entries map[string]*Entry, folded map[string]*FoldedLine) {
	// trace.Events sorts by Ts with emission-order ties; for nesting we
	// additionally need parents (longer spans) before children at equal
	// starts.
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Ts != spans[j].Ts {
			return spans[i].Ts < spans[j].Ts
		}
		return spans[i].End() > spans[j].End()
	})
	base := sanitize(proc) + ";" + sanitize(lane)
	var stack []openSpan
	pop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		self := top.dur - top.childDur
		if self < 0 {
			self = 0
		}
		top.entry.Self += self
		f := folded[top.path]
		if f == nil {
			f = &FoldedLine{Stack: top.path}
			folded[top.path] = f
		}
		f.SelfUS += int64((self + 500) / 1000) // round ns → µs
		f.Cycles += top.cycles
	}
	for _, s := range spans {
		for len(stack) > 0 && stack[len(stack)-1].end <= s.Ts {
			pop()
		}
		// A span that starts inside the open span but outlives it partially
		// overlaps; close the open span and treat this one as a sibling.
		for len(stack) > 0 && stack[len(stack)-1].end < s.End() {
			pop()
		}
		key := proc + "\x00" + lane + "\x00" + s.Name
		e := entries[key]
		if e == nil {
			e = &Entry{Process: proc, Lane: lane, Name: s.Name}
			entries[key] = e
		}
		e.Count++
		e.Total += s.Dur
		cycles := argVal(s, "cycles")
		e.Cycles += cycles
		e.CritMs += argVal(s, "crit_ms")
		if len(stack) > 0 {
			stack[len(stack)-1].childDur += s.Dur
		}
		path := base
		if len(stack) > 0 {
			path = stack[len(stack)-1].path
		}
		stack = append(stack, openSpan{
			end: s.End(), dur: s.Dur, entry: e,
			path: path + ";" + sanitize(s.Name), cycles: cycles,
		})
	}
	for len(stack) > 0 {
		pop()
	}
}

// argVal returns the named span annotation (0 when absent).
func argVal(e trace.Event, key string) float64 {
	for _, a := range e.Args {
		if a.Key == key {
			return a.Val
		}
	}
	return 0
}

// sanitize makes a name safe as a folded-stack frame: frames are separated
// by ';' and the stack is separated from its weight by the last space, so
// neither may appear inside a frame.
func sanitize(s string) string {
	s = strings.ReplaceAll(s, ";", ":")
	s = strings.ReplaceAll(s, " ", "_")
	if s == "" {
		s = "?"
	}
	return s
}

// Table renders the profile as an aligned ASCII table, top rows first;
// top <= 0 renders every entry.
func (p *Profile) Table(top int) string {
	entries := p.Entries
	truncated := 0
	if top > 0 && len(entries) > top {
		truncated = len(entries) - top
		entries = entries[:top]
	}
	rows := [][]string{{"process", "lane", "span", "count", "total_ms", "self_ms", "cycles", "crit_ms"}}
	for _, e := range entries {
		rows = append(rows, []string{
			e.Process, e.Lane, e.Name,
			fmt.Sprintf("%d", e.Count),
			ms(e.Total), ms(e.Self),
			fmt.Sprintf("%.0f", e.Cycles),
			fmt.Sprintf("%.3f", e.CritMs),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== profile: %d lanespans, %.3fs-%.3fs",
		len(p.Entries), p.Start.Seconds(), p.End.Seconds())
	if p.Loads > 0 {
		fmt.Fprintf(&b, ", %d loads, ePLT sum %.3f ms", p.Loads, p.EPLTms)
	}
	b.WriteString(" ==\n")
	trace.WriteAligned(&b, rows)
	if truncated > 0 {
		fmt.Fprintf(&b, "... %d more entries (self below cutoff)\n", truncated)
	}
	return b.String()
}

// ms renders a duration in milliseconds with fixed precision.
func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d)/1e6) }
