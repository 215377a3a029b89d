// Command pageload loads one synthetic page on a configured device and
// prints the WProf-style waterfall, critical path, and compute breakdown —
// the debugging view behind the paper's §3.1 analysis.
//
// Usage:
//
//	pageload                                   # news page on a Nexus4
//	pageload -device "Google Pixel2"           # another catalog device
//	pageload -mhz 384 -category sports         # pinned clock, category pick
//	pageload -cores 1 -ram 512                 # one core, 512 MB of RAM
//	pageload -faults default                   # load under the mixed fault plan
//	pageload -telemetry metrics.prom           # Prometheus snapshot of the load
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"mobileqoe/cmd/internal/obsflag"
	"mobileqoe/internal/browser"
	"mobileqoe/internal/core"
	"mobileqoe/internal/device"
	"mobileqoe/internal/experiments"
	"mobileqoe/internal/fault"
	"mobileqoe/internal/profile"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/trace"
	"mobileqoe/internal/units"
	"mobileqoe/internal/webpage"
	"mobileqoe/internal/wprof"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args on its own flag set and returns
// the exit code, so tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pageload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dev       = fs.String("device", "Google Nexus4", "catalog device name")
		mhz       = fs.Float64("mhz", 0, "pin the clock (userspace governor), MHz")
		cores     = fs.Int("cores", 0, "online cores (0 = all)")
		ramMB     = fs.Int("ram", 0, "RAM override in MB (0 = stock)")
		category  = fs.String("category", "news", "page category: news|sports|business|health|shopping")
		seed      = fs.Uint64("seed", 1, "page generation seed")
		waterfall = fs.Bool("waterfall", false, "print the full activity waterfall")
		timeline  = fs.Bool("timeline", false, "print an ASCII timeline of the trace (implies tracing)")
		prof      = fs.Bool("profile", false, "print an aggregated virtual-time profile of the load (implies tracing)")
		folded    = fs.String("folded", "", "write folded stacks (flamegraph.pl / speedscope) of the load to this file (implies tracing)")
		faults    = fs.String("faults", "", "fault-injection plan: a JSON plan file, 'default' for the built-in mixed plan, or 'none'")
	)
	ob := obsflag.Register(fs,
		"write a Chrome trace-event JSON of the load to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	spec, err := device.ByName(*dev)
	if err != nil {
		fmt.Fprintln(stderr, "pageload:", err)
		return 1
	}
	if cats := webpage.Categories(); !slices.Contains(cats, webpage.Category(*category)) {
		names := make([]string, len(cats))
		for i, c := range cats {
			names[i] = string(c)
		}
		fmt.Fprintf(stderr, "pageload: unknown -category %q (have %s)\n", *category, strings.Join(names, "|"))
		return 2
	}
	var opts []core.Option
	if *mhz > 0 {
		opts = append(opts, core.WithClock(units.MHz(*mhz)))
	}
	if *cores > 0 {
		opts = append(opts, core.WithCores(*cores))
	}
	if *ramMB > 0 {
		opts = append(opts, core.WithRAM(units.ByteSize(*ramMB)*units.MB))
	}
	if plan, perr := fault.Resolve(*faults); perr != nil {
		fmt.Fprintln(stderr, "pageload:", perr)
		return 1
	} else if plan != nil {
		// Seeded from -seed, not from the cell's system ordinal, so a
		// faulted load pairs with the clean load of the same page.
		opts = append(opts, core.WithFaultPlan(plan, *seed))
	}

	page := webpage.Generate(fmt.Sprintf("%s-cli.example", *category),
		webpage.Category(*category), *seed)
	fmt.Fprintf(stdout, "loading %s (%s, %d resources, %s) on %s\n\n",
		page.Name, page.Category, len(page.Resources), page.TotalBytes(), spec)

	// The load is one runner cell: the runner hands it its tracer and
	// registry, and the observer records it.
	cfg := experiments.Config{}.WithSeed(*seed)
	ob.Configure(&cfg)
	rl, err := ob.RunLog.Start("pageload", 1, runlog.Manifest{
		Experiments:  []string{"pageload"},
		Seed:         *seed,
		SeedSchedule: "single cell; -seed drives page generation and the fault injector",
		Trials:       1,
		Parallel:     1,
		FaultPlan:    *faults,
	}, nil)
	if err != nil {
		fmt.Fprintln(stderr, "pageload:", err)
		return 1
	}
	var res browser.Result
	load := func(c experiments.Config) (*experiments.Table, error) {
		res = c.NewSystem(spec, opts...).LoadPage(page)
		return &experiments.Table{ID: "pageload"}, nil
	}
	var tr *trace.Tracer
	results, err := runner.Run(context.Background(), []string{"pageload"}, cfg, runner.Options{
		Parallel: 1,
		Trace:    ob.TraceOut != "" || *timeline || *prof || *folded != "",
		Resolve:  func(string) (experiments.Runner, bool) { return load, true },
		Progress: func(ev runner.Event) { tr = ev.Trace },
		Stream:   rl.Stream,
	})
	if err == nil {
		err = results[0].Err
	}
	if cerr := rl.Close(err); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "pageload:", err)
		return 1
	}

	fmt.Fprintf(stdout, "PLT: %v\n", res.PLT.Round(time.Millisecond))
	if res.Degraded {
		fmt.Fprintf(stdout, "DEGRADED: %d resources abandoned, %d mem-kill restarts (ePLT over what rendered)\n",
			len(res.FailedResources), res.Restarts)
	}
	fmt.Fprintln(stdout)

	// Compute breakdown by activity kind.
	byKind := map[browser.ActivityKind]time.Duration{}
	counts := map[browser.ActivityKind]int{}
	for _, a := range res.Activities {
		byKind[a.Kind] += a.Duration()
		counts[a.Kind]++
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	fmt.Fprintln(stdout, "activity totals:")
	for _, k := range kinds {
		kk := browser.ActivityKind(k)
		fmt.Fprintf(stdout, "  %-7s n=%-4d %v\n", k, counts[kk], byKind[kk].Round(time.Millisecond))
	}

	g := wprof.FromResult(res)
	st := g.CriticalPath()
	fmt.Fprintf(stdout, "\ncritical path: total %v = network %v + compute %v (script %v)\n",
		st.Total.Round(time.Millisecond), st.Network.Round(time.Millisecond),
		st.Compute.Round(time.Millisecond), st.Script.Round(time.Millisecond))

	if *waterfall {
		fmt.Fprintln(stdout, "\nwaterfall:")
		for _, a := range res.Activities {
			bar := strings.Repeat(" ", int(a.Start/(50*time.Millisecond)))
			fmt.Fprintf(stdout, "%8.3fs %-7s %s%s %s\n", a.Start.Seconds(), a.Kind, bar,
				strings.Repeat("#", 1+int(a.Duration()/(50*time.Millisecond))), a.Name)
		}
	}

	if *timeline {
		fmt.Fprintln(stdout)
		if err := tr.WriteASCII(stdout, 100); err != nil {
			fmt.Fprintln(stderr, "pageload:", err)
			return 1
		}
	}
	if *prof {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, profile.FromTracer(tr).Table(30))
	}
	if *folded != "" {
		f, err := os.Create(*folded)
		if err == nil {
			err = profile.FromTracer(tr).WriteFolded(f, profile.WeightTime)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "pageload:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote folded stacks to %s\n", *folded)
	}
	if err := ob.Write(stdout, results[0].Table.Metrics, tr); err != nil {
		fmt.Fprintln(stderr, "pageload:", err)
		return 1
	}
	return 0
}
