// Command tracediff analyzes Chrome trace-event JSON files written by the
// simulator's commands (qoesim, pageload or regexdsp -trace) without
// re-running anything.
//
// Usage:
//
//	tracediff run.json                   # aggregated virtual-time profile
//	tracediff -folded run.json           # folded stacks (flamegraph.pl /
//	                                     # speedscope) on stdout
//	tracediff -weight cycles -folded run.json
//	tracediff -check run.json            # trace invariant checker
//	tracediff a.json b.json              # differential profile: where run B
//	                                     # spends time run A does not
//
// With two traces the output is a delta table sorted by each activity's
// critical-path contribution. When both runs used the same workload seed the
// per-activity crit deltas sum exactly to the ePLT difference, so the table
// is a complete attribution of the device gap (see EXPERIMENTS.md,
// "Profiling and diffing runs"). Output depends only on the input files, so
// repeated invocations are byte-identical.
package main

import (
	"flag"
	"fmt"
	"os"

	"mobileqoe/internal/profile"
	"mobileqoe/internal/trace"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		top    = flag.Int("top", 30, "max table rows (0 = all)")
		folded = flag.Bool("folded", false, "emit folded stacks on stdout instead of the profile table (single trace only)")
		weight = flag.String("weight", "time", "folded-stack weight: 'time' (self virtual µs) or 'cycles'")
		check  = flag.Bool("check", false, "run the trace invariant checker (single trace only); violations exit nonzero")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tracediff [flags] trace.json [other.json]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var by profile.Weight
	switch *weight {
	case "time":
		by = profile.WeightTime
	case "cycles":
		by = profile.WeightCycles
	default:
		fmt.Fprintf(os.Stderr, "tracediff: -weight must be 'time' or 'cycles', got %q\n", *weight)
		return 2
	}

	switch flag.NArg() {
	case 1:
		tr, err := load(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracediff: %v\n", err)
			return 1
		}
		if *check {
			// Imported traces carry no metrics registry; registry-dependent
			// rules skip themselves.
			violations := profile.Check(tr.Events(), nil)
			for _, v := range violations {
				fmt.Printf("violation: %s\n", v)
			}
			if n := len(violations); n > 0 {
				fmt.Printf("%d invariant violations\n", n)
				return 1
			}
			fmt.Printf("trace invariants ok (%d events checked)\n", len(tr.Events()))
			return 0
		}
		p := profile.FromTracer(tr)
		if *folded {
			if err := p.WriteFolded(os.Stdout, by); err != nil {
				fmt.Fprintf(os.Stderr, "tracediff: %v\n", err)
				return 1
			}
			return 0
		}
		fmt.Print(p.Table(*top))
		return 0
	case 2:
		if *folded || *check {
			fmt.Fprintln(os.Stderr, "tracediff: -folded and -check apply to a single trace")
			return 2
		}
		a, err := load(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracediff: %v\n", err)
			return 1
		}
		b, err := load(flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracediff: %v\n", err)
			return 1
		}
		d := profile.Compare(profile.FromTracer(a), profile.FromTracer(b))
		if err := d.WriteTable(os.Stdout, *top); err != nil {
			fmt.Fprintf(os.Stderr, "tracediff: %v\n", err)
			return 1
		}
		return 0
	default:
		flag.Usage()
		return 2
	}
}

// load reads one Chrome trace-event JSON file back into a Tracer.
func load(path string) (*trace.Tracer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.Import(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}
