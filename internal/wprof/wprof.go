// Package wprof reimplements the analysis side of WProf as used by the
// paper: it turns a recorded page-load trace into a dependency graph,
// extracts the critical path and its compute/network decomposition (§3.1),
// and re-evaluates the graph under modified conditions to produce the
// emulated page load times (ePLT) of the §4.2 offload study — replacing the
// execution time of regex-bearing script activities with their measured DSP
// times, exactly as the paper describes.
package wprof

import (
	"time"

	"mobileqoe/internal/browser"
	"mobileqoe/internal/dsp"
	"mobileqoe/internal/units"
	"mobileqoe/internal/webpage"
)

// Node is one activity in the dependency graph.
type Node struct {
	ID         int
	Kind       browser.ActivityKind
	Name       string
	Duration   time.Duration // as measured in the trace
	Start, End time.Duration // measured times (relative to trace clock)
	Cycles     float64       // reference-cycle cost for compute nodes
	Deps       []int
	MainThread bool
	Profile    *webpage.Profile // script nodes only
}

// Graph is a page-load dependency graph. Node IDs equal slice indices and
// are in completion order, which is a valid topological order.
type Graph struct {
	Nodes []Node
}

// FromResult builds the graph from a browser trace.
func FromResult(r browser.Result) *Graph {
	g := &Graph{Nodes: make([]Node, len(r.Activities))}
	for i, a := range r.Activities {
		g.Nodes[i] = Node{
			ID: a.ID, Kind: a.Kind, Name: a.Name,
			Duration: a.Duration(), Start: a.Start, End: a.End,
			Cycles: a.Cycles, Deps: a.Deps,
			MainThread: a.MainThread, Profile: a.Profile,
		}
	}
	return g
}

// PathStats decomposes the critical path, WProf-style.
type PathStats struct {
	Total   time.Duration // end-to-end critical path length
	Network time.Duration // fetch durations (plus waits before fetches)
	Compute time.Duration // compute durations (plus waits before compute)
	Script  time.Duration // scripting subset of Compute
	NodeIDs []int         // critical path, last node first
	// Segments attributes each critical-path step to its node, in NodeIDs
	// order (last node first). Each step spans from the binding
	// predecessor's end to this node's end, so queueing gaps are charged to
	// the waiting node and the durations telescope: they sum exactly to the
	// last node's end minus the root node's start — the page load time.
	// This is the per-activity attribution the trace profiler exports as
	// crit_ms span annotations.
	Segments []Segment
}

// Segment is one node's share of the critical path.
type Segment struct {
	NodeID int
	Dur    time.Duration
}

// CriticalPath walks the measured trace backwards from the last-finishing
// node, at each step following the predecessor whose completion bound this
// node's start (the recorded dependency with the latest end). Time gaps
// (queueing behind other work) are attributed to the waiting node's side.
func (g *Graph) CriticalPath() PathStats {
	var st PathStats
	if len(g.Nodes) == 0 {
		return st
	}
	last := 0
	for i, n := range g.Nodes {
		if n.End > g.Nodes[last].End {
			last = i
		}
	}
	st.Total = g.Nodes[last].End
	cur := last
	for {
		n := g.Nodes[cur]
		st.NodeIDs = append(st.NodeIDs, cur)
		// The binding predecessor is the dep with the latest end time.
		bind := -1
		var bindEnd time.Duration
		for _, d := range n.Deps {
			if g.Nodes[d].End >= bindEnd {
				bind = d
				bindEnd = g.Nodes[d].End
			}
		}
		span := n.End - bindEnd // duration + wait since the binding dep
		if bind < 0 {
			span = n.Duration
		}
		if n.Kind == browser.Fetch {
			st.Network += span
		} else {
			st.Compute += span
			if n.Kind == browser.Script {
				st.Script += span
			}
		}
		st.Segments = append(st.Segments, Segment{NodeID: cur, Dur: span})
		if bind < 0 {
			break
		}
		cur = bind
	}
	return st
}

// EvalOptions re-prices the graph for ePLT.
type EvalOptions struct {
	// EffectiveRate is the CPU speed in cycles/second (frequency × IPC) used
	// for compute nodes. Required.
	EffectiveRate float64
	// Offload moves each script's regex work to the DSP (one batched FastRPC
	// per script), replacing its CPU time — the paper's ePLT methodology.
	Offload bool
	// DSP is required when Offload is set.
	DSP *dsp.DSP
	// NetworkScale multiplies fetch durations (0 means 1.0); lets ablations
	// model faster/slower networks without re-running the browser.
	NetworkScale float64
}

// NodeDuration returns the re-priced duration of node n under opts.
func (g *Graph) NodeDuration(n *Node, opts EvalOptions) time.Duration {
	nets := opts.NetworkScale
	if nets == 0 {
		nets = 1
	}
	switch {
	case n.Kind == browser.Fetch:
		return time.Duration(float64(n.Duration) * nets)
	case n.Kind == browser.Script && n.Profile != nil:
		if opts.Offload {
			if opts.DSP == nil {
				panic("wprof: Offload requires a DSP")
			}
			cpuPart := units.DurationFor(n.Profile.PlainCycles(), units.Freq(opts.EffectiveRate))
			return cpuPart + n.Profile.RegexDSPTime(opts.DSP)
		}
		return units.DurationFor(n.Profile.TotalCPUCycles(), units.Freq(opts.EffectiveRate))
	default:
		return units.DurationFor(n.Cycles, units.Freq(opts.EffectiveRate))
	}
}

// EPLT re-evaluates the graph with a WProf-style list schedule: nodes become
// ready when their dependencies finish; main-thread compute serializes on
// one virtual core in original completion order; decodes serialize on the
// raster thread; fetches overlap freely at their (re-scaled) measured
// durations. It returns the emulated page load time.
func (g *Graph) EPLT(opts EvalOptions) time.Duration {
	if opts.EffectiveRate <= 0 {
		panic("wprof: EffectiveRate must be positive")
	}
	finish := make([]time.Duration, len(g.Nodes))
	var mainAvail, rasterAvail, eplt time.Duration
	for i := range g.Nodes {
		n := &g.Nodes[i]
		var start time.Duration
		for _, d := range n.Deps {
			if finish[d] > start {
				start = finish[d]
			}
		}
		switch {
		case n.MainThread:
			if mainAvail > start {
				start = mainAvail
			}
		case n.Kind == browser.Decode:
			if rasterAvail > start {
				start = rasterAvail
			}
		}
		end := start + g.NodeDuration(n, opts)
		finish[i] = end
		if n.MainThread {
			mainAvail = end
		} else if n.Kind == browser.Decode {
			rasterAvail = end
		}
		if end > eplt {
			eplt = end
		}
	}
	return eplt
}

// ScriptStats summarizes per-script execution time under opts (Fig. 7a's
// left axis: average Javascript execution time, CPU vs DSP).
func (g *Graph) ScriptStats(opts EvalOptions) (total time.Duration, count int) {
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Kind != browser.Script {
			continue
		}
		total += g.NodeDuration(n, opts)
		count++
	}
	return total, count
}

// RegexShare returns the regex fraction of total scripting CPU cycles in
// the trace (the paper's "20% of scripting time" / sports-page figure).
func (g *Graph) RegexShare() float64 {
	var regex, all float64
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Kind != browser.Script || n.Profile == nil {
			continue
		}
		regex += n.Profile.RegexCPUCycles()
		all += n.Profile.TotalCPUCycles()
	}
	if all == 0 {
		return 0
	}
	return regex / all
}
