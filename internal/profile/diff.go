package profile

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"mobileqoe/internal/trace"
)

// Differential profile — the automated answer to "where does the slow
// device spend its extra page-load time?". Two runs of the same workload at
// the same seed execute the same activities with the same names, so
// entries align span-by-span across runs; what differs is how long each
// activity took and which activities bound the critical path.
//
// The crit_ms annotations (wprof critical-path segments, emitted by
// core.LoadPage) telescope to each run's PLT, so per-activity crit deltas
// sum exactly to the ePLT gap: the delta table *is* a complete attribution,
// reconciled against WProf's compute/network decomposition by classifying
// each lane as network (transfer lanes) or compute.

// DiffEntry is one aligned span name across the two runs.
type DiffEntry struct {
	Lane, Name       string
	CountA, CountB   int
	TotalA, TotalB   time.Duration
	CritMsA, CritMsB float64
	Network          bool // lane classified as network transfer time
}

// DTotal returns TotalB - TotalA.
func (d DiffEntry) DTotal() time.Duration { return d.TotalB - d.TotalA }

// DCrit returns CritMsB - CritMsA, the entry's share of the ePLT gap.
func (d DiffEntry) DCrit() float64 { return d.CritMsB - d.CritMsA }

// Diff aligns two profiles (run A = baseline, run B = treatment).
type Diff struct {
	Entries []DiffEntry // sorted by DCrit descending, then DTotal, then key
	// EPLT gap (B − A) in milliseconds, from the load-event annotations.
	EPLTmsA, EPLTmsB float64
	// Critical-path gap attribution, split WProf-style. CritNetworkMs +
	// CritComputeMs equals the summed DCrit of all entries, which equals
	// the ePLT delta up to float formatting.
	CritNetworkMs, CritComputeMs float64
}

// EPLTDeltaMs returns the ePLT gap B − A in milliseconds.
func (d *Diff) EPLTDeltaMs() float64 { return d.EPLTmsB - d.EPLTmsA }

// CritDeltaMs returns the summed per-entry critical-path deltas.
func (d *Diff) CritDeltaMs() float64 { return d.CritNetworkMs + d.CritComputeMs }

// networkLane classifies a lane as network transfer time: the browser's
// replayed fetch lane and the per-connection TCP lanes.
func networkLane(lane string) bool {
	return lane == "browser:net" || strings.HasPrefix(lane, "net:")
}

// Compare aligns b against a (a is the baseline). Entries are keyed by
// (lane, span name) — process names differ between devices by design, so
// they do not participate in alignment.
func Compare(a, b *Profile) *Diff {
	type key struct{ lane, name string }
	merged := map[key]*DiffEntry{}
	get := func(k key) *DiffEntry {
		e := merged[k]
		if e == nil {
			e = &DiffEntry{Lane: k.lane, Name: k.name, Network: networkLane(k.lane)}
			merged[k] = e
		}
		return e
	}
	for _, e := range a.Entries {
		d := get(key{e.Lane, e.Name})
		d.CountA += e.Count
		d.TotalA += e.Total
		d.CritMsA += e.CritMs
	}
	for _, e := range b.Entries {
		d := get(key{e.Lane, e.Name})
		d.CountB += e.Count
		d.TotalB += e.Total
		d.CritMsB += e.CritMs
	}
	diff := &Diff{EPLTmsA: a.EPLTms, EPLTmsB: b.EPLTms}
	diff.Entries = make([]DiffEntry, 0, len(merged))
	for _, e := range merged {
		diff.Entries = append(diff.Entries, *e)
		if e.Network {
			diff.CritNetworkMs += e.DCrit()
		} else {
			diff.CritComputeMs += e.DCrit()
		}
	}
	sort.Slice(diff.Entries, func(i, j int) bool {
		x, y := diff.Entries[i], diff.Entries[j]
		if x.DCrit() != y.DCrit() {
			return x.DCrit() > y.DCrit()
		}
		if x.DTotal() != y.DTotal() {
			return x.DTotal() > y.DTotal()
		}
		if x.Lane != y.Lane {
			return x.Lane < y.Lane
		}
		return x.Name < y.Name
	})
	return diff
}

// WriteTable renders the delta table, largest critical-path contributors
// first; top <= 0 renders every entry. The header reconciles the ePLT gap
// against the summed per-activity deltas and their network/compute split.
func (d *Diff) WriteTable(w io.Writer, top int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== tracediff: ePLT delta %+.3f ms (A %.3f ms -> B %.3f ms) ==\n",
		d.EPLTDeltaMs(), d.EPLTmsA, d.EPLTmsB)
	fmt.Fprintf(&b, "critical-path attribution: %+.3f ms = network %+.3f ms + compute %+.3f ms\n",
		d.CritDeltaMs(), d.CritNetworkMs, d.CritComputeMs)
	entries := d.Entries
	truncated := 0
	if top > 0 && len(entries) > top {
		truncated = len(entries) - top
		entries = entries[:top]
	}
	rows := [][]string{{"lane", "span", "class", "n(A/B)", "total_ms(A)", "total_ms(B)", "d_total_ms", "d_crit_ms"}}
	for _, e := range entries {
		class := "compute"
		if e.Network {
			class = "network"
		}
		rows = append(rows, []string{
			e.Lane, e.Name, class,
			fmt.Sprintf("%d/%d", e.CountA, e.CountB),
			ms(e.TotalA), ms(e.TotalB),
			fmt.Sprintf("%+.3f", float64(e.DTotal())/1e6),
			fmt.Sprintf("%+.3f", e.DCrit()),
		})
	}
	trace.WriteAligned(&b, rows)
	if truncated > 0 {
		fmt.Fprintf(&b, "... %d more entries\n", truncated)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
