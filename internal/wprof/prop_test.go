package wprof

import (
	"math/rand"
	"testing"
	"time"

	"mobileqoe/internal/browser"
)

// Randomized-graph properties of the critical-path decomposition. Graphs
// are generated with a fixed-seed PRNG, so failures reproduce
// deterministically.

// randomGraph builds a random measured dependency graph: node 0 is the only
// root (the document fetch), every later node depends on at least one
// earlier node, and measured Start/End times are consistent with the
// dependencies (start = latest dep end + a random queueing wait).
func randomGraph(r *rand.Rand, maxNodes int) *Graph {
	n := 2 + r.Intn(maxNodes-1)
	kinds := []browser.ActivityKind{browser.Fetch, browser.Parse, browser.Script,
		browser.Style, browser.Decode, browser.Layout, browser.Paint}
	g := &Graph{Nodes: make([]Node, n)}
	for i := range g.Nodes {
		kind := kinds[r.Intn(len(kinds))]
		if i == 0 {
			kind = browser.Fetch // the document fetch roots every real graph
		}
		node := Node{ID: i, Kind: kind, Name: string(kind)}
		if kind == browser.Fetch {
			node.Duration = time.Duration(r.Intn(200_000_001)) // ≤ 200 ms
		} else {
			node.Cycles = float64(r.Intn(100_000_001)) // ≤ 1e8 reference cycles
			node.Duration = time.Duration(r.Intn(50_000_001))
			node.MainThread = kind != browser.Decode && r.Intn(4) > 0
		}
		if i > 0 {
			deps := map[int]bool{r.Intn(i): true}
			for d := 0; d < i; d++ {
				if r.Intn(8) == 0 {
					deps[d] = true
				}
			}
			var start time.Duration
			for d := range deps {
				node.Deps = append(node.Deps, d)
				if g.Nodes[d].End > start {
					start = g.Nodes[d].End
				}
			}
			node.Start = start + time.Duration(r.Intn(10_000_001)) // queue wait
		}
		node.End = node.Start + node.Duration
		g.Nodes[i] = node
	}
	return g
}

func TestCriticalPathDecompositionSumsExactly(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		g := randomGraph(r, 40)
		st := g.CriticalPath()
		if got := st.Network + st.Compute; got != st.Total {
			t.Fatalf("trial %d: network %v + compute %v = %v, want total %v",
				trial, st.Network, st.Compute, got, st.Total)
		}
		if len(st.Segments) != len(st.NodeIDs) {
			t.Fatalf("trial %d: %d segments vs %d path nodes",
				trial, len(st.Segments), len(st.NodeIDs))
		}
		var sum time.Duration
		for i, seg := range st.Segments {
			if seg.NodeID != st.NodeIDs[i] {
				t.Fatalf("trial %d: segment %d node %d, want %d",
					trial, i, seg.NodeID, st.NodeIDs[i])
			}
			sum += seg.Dur
		}
		// Segments telescope to last end − root start; node 0 starts at 0,
		// so the sum equals the critical-path total exactly.
		if sum != st.Total {
			t.Fatalf("trial %d: segments sum %v, want total %v", trial, sum, st.Total)
		}
		if st.Script > st.Compute {
			t.Fatalf("trial %d: script %v exceeds compute %v", trial, st.Script, st.Compute)
		}
	}
}
