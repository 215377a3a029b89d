// Command runlogcheck validates NDJSON run logs (see internal/runlog) and
// prints a one-line summary per file. CI runs it over the log a scenario
// sweep produced so schema drift fails the build instead of breaking
// downstream jq pipelines. Exits nonzero if any file is malformed.
//
// Default mode demands a complete log (closing summary record); a log from
// a crashed, killed, or interrupted run fails with a hint to re-check it
// with -truncated, which accepts a missing summary and a torn final line
// and reports the last healthy cell instead — the triage entry point after
// a fleet kill (see EXPERIMENTS.md "Running a fleet").
//
//	go run ./scripts/runlogcheck out.ndjson [more.ndjson ...]
//	go run ./scripts/runlogcheck -summary out.ndjson     # per-status/error/timing digest
//	go run ./scripts/runlogcheck -truncated crashed.ndjson   # accept crash-shaped logs
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mobileqoe/internal/runlog"
	"mobileqoe/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args on its own flag set and returns
// the exit code, so tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("runlogcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	summarize := fs.Bool("summary", false,
		"after validating, print a digest per file: cell counts by status, error-class breakdown, wall/virtual-time quantiles")
	truncated := fs.Bool("truncated", false,
		"accept crash/kill-shaped logs: missing closing summary and a torn final line pass, and the last healthy cell is reported")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: runlogcheck [-summary] [-truncated] <runlog.ndjson> [...]")
		return 2
	}
	bad := false
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "runlogcheck: %v\n", err)
			bad = true
			continue
		}
		var c runlog.Counts
		if *truncated {
			c, err = runlog.ValidateTruncated(f)
		} else {
			c, err = runlog.Validate(f)
		}
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "runlogcheck: %s: %v\n", path, err)
			bad = true
			continue
		}
		summary := "truncated (no summary)"
		if c.HasSummary {
			summary = "complete"
		}
		if c.TornTail {
			summary += ", torn final line"
		}
		fmt.Fprintf(stdout, "%s: ok — tool=%s schema=%d cells=%d (ok=%d failed=%d) health=%d alerts=%d exemplars=%d %s\n",
			path, c.Manifest.Tool, c.Manifest.Schema, c.Cells, c.CellsOK, c.CellsFailed,
			c.Health, c.Alerts, c.Exemplars, summary)
		if *truncated && !c.HasSummary {
			if lc := c.LastOK; lc != nil {
				fmt.Fprintf(stdout, "  last healthy cell: index=%d id=%s trial=%d wall_ms=%.0f\n",
					lc.Index, lc.ID, lc.Trial, lc.WallMS)
			} else {
				fmt.Fprintln(stdout, "  last healthy cell: (none recorded before the crash)")
			}
			if lc := c.LastCell; lc != nil && (c.LastOK == nil || lc.Index != c.LastOK.Index) {
				fmt.Fprintf(stdout, "  last intact cell:  index=%d id=%s trial=%d status=%s\n",
					lc.Index, lc.ID, lc.Trial, lc.Status)
			}
		}
		if *summarize {
			if err := digest(stdout, path, c); err != nil {
				fmt.Fprintf(stderr, "runlogcheck: %s: %v\n", path, err)
				bad = true
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}

// digest re-reads an already-validated log and prints the -summary block:
// cell counts by status, the error-class breakdown, and wall/virtual-time
// quantiles over the cells.
func digest(w io.Writer, path string, c runlog.Counts) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	status := map[string]int{}
	classes := map[string]int{}
	var wall, virtual []float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var cell runlog.Cell
		if err := json.Unmarshal(sc.Bytes(), &cell); err != nil || cell.Type != "cell" {
			continue
		}
		status[cell.Status]++
		if cell.ErrorClass != "" {
			classes[cell.ErrorClass]++
		}
		wall = append(wall, cell.WallMS)
		if cell.Status != "error" {
			virtual = append(virtual, cell.VirtualMS)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Fprintf(w, "  cells by status: %s\n", countLine(status))
	if len(classes) > 0 {
		fmt.Fprintf(w, "  error classes:   %s\n", countLine(classes))
	}
	fmt.Fprintf(w, "  wall ms:         %s\n", quantileLine(wall))
	fmt.Fprintf(w, "  virtual ms:      %s\n", quantileLine(virtual))
	if c.HasSummary && c.Summary.SLOViolations > 0 {
		fmt.Fprintf(w, "  slo violations:  %d\n", c.Summary.SLOViolations)
	}
	return nil
}

// countLine renders a map as "k=v" pairs in sorted key order.
func countLine(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, " ")
}

// quantileLine renders exact p50/p90/p99/max over vs (the digest has the
// whole log in hand, so no sketch approximation is needed).
func quantileLine(vs []float64) string {
	if len(vs) == 0 {
		return "(no cells)"
	}
	var s stats.Sample
	for _, v := range vs {
		s.Add(v)
	}
	return fmt.Sprintf("p50=%.1f p90=%.1f p99=%.1f max=%.1f n=%d",
		s.Percentile(50), s.Percentile(90), s.Percentile(99), s.Percentile(100), len(vs))
}
