package wprof

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"mobileqoe/internal/browser"
	"mobileqoe/internal/script"
	"mobileqoe/internal/webpage"
)

// Graph serialization. The paper's §4.2 methodology extracts WProf
// dependency graphs once and then re-evaluates them offline under modified
// conditions; these helpers give the reproduction the same workflow —
// export a traced graph to JSON, reload it later (or on another machine),
// and replay ePLT what-ifs without re-running the browser simulation.

type jsonNode struct {
	ID         int     `json:"id"`
	Kind       string  `json:"kind"`
	Name       string  `json:"name,omitempty"`
	DurationUs int64   `json:"duration_us"`
	StartUs    int64   `json:"start_us"`
	Cycles     float64 `json:"cycles,omitempty"`
	Deps       []int   `json:"deps,omitempty"`
	MainThread bool    `json:"main_thread,omitempty"`
	// Script cost profile (present on script nodes).
	Ops      int64               `json:"ops,omitempty"`
	StrBytes int64               `json:"str_bytes,omitempty"`
	Regex    *script.RegexTotals `json:"regex,omitempty"`
}

// graphVersion is the graph format WriteJSON writes and ReadJSON reads.
// Version 2 keeps a script's regex work as totals, which is all offload
// pricing reads; older files carry per-call records and must be exported
// again.
const graphVersion = 2

type jsonGraph struct {
	Version int        `json:"version"`
	Nodes   []jsonNode `json:"nodes"`
}

// WriteJSON serializes the graph, including script regex totals, so a
// replay can re-price offload decisions.
func (g *Graph) WriteJSON(w io.Writer) error {
	out := jsonGraph{Version: graphVersion, Nodes: make([]jsonNode, 0, len(g.Nodes))}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		jn := jsonNode{
			ID: n.ID, Kind: string(n.Kind), Name: n.Name,
			DurationUs: n.Duration.Microseconds(), StartUs: n.Start.Microseconds(),
			Cycles: n.Cycles, Deps: n.Deps, MainThread: n.MainThread,
		}
		if n.Profile != nil {
			jn.Ops = n.Profile.Ops
			jn.StrBytes = n.Profile.StrBytes
			if n.Profile.Regex.Count > 0 {
				jn.Regex = &n.Profile.Regex
			}
		}
		out.Nodes = append(out.Nodes, jn)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// ReadJSON reloads a serialized graph. Node IDs must be dense and in
// topological (completion) order, as produced by WriteJSON.
func ReadJSON(r io.Reader) (*Graph, error) {
	var in jsonGraph
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("wprof: decoding graph: %w", err)
	}
	if in.Version != graphVersion {
		return nil, fmt.Errorf("wprof: unsupported graph version %d, want %d: re-export the graph with this build",
			in.Version, graphVersion)
	}
	g := &Graph{Nodes: make([]Node, len(in.Nodes))}
	for i, jn := range in.Nodes {
		if jn.ID != i {
			return nil, fmt.Errorf("wprof: node %d has id %d; ids must be dense and ordered", i, jn.ID)
		}
		for _, d := range jn.Deps {
			if d < 0 || d >= jn.ID {
				return nil, fmt.Errorf("wprof: node %d has invalid dep %d", jn.ID, d)
			}
		}
		n := Node{
			ID: jn.ID, Kind: browser.ActivityKind(jn.Kind), Name: jn.Name,
			Duration: time.Duration(jn.DurationUs) * time.Microsecond,
			Start:    time.Duration(jn.StartUs) * time.Microsecond,
			Cycles:   jn.Cycles, Deps: jn.Deps, MainThread: jn.MainThread,
		}
		n.End = n.Start + n.Duration
		if jn.Ops > 0 || jn.Regex != nil {
			n.Profile = &webpage.Profile{Ops: jn.Ops, StrBytes: jn.StrBytes}
			if jn.Regex != nil {
				n.Profile.Regex = *jn.Regex
			}
		}
		g.Nodes[i] = n
	}
	return g, nil
}
