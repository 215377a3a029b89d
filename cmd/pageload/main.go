// Command pageload loads one synthetic page on a configured device and
// prints the WProf-style waterfall, critical path, and compute breakdown —
// the debugging view behind the paper's §3.1 analysis.
//
// Usage:
//
//	pageload                                   # news page on a Nexus4
//	pageload -device "Google Pixel2"           # another catalog device
//	pageload -mhz 384 -category sports         # pinned clock, category pick
//	pageload -cores 1 -ram 512MB
//	pageload -faults default                   # load under the mixed fault plan
//	pageload -telemetry metrics.prom           # Prometheus snapshot of the load
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"mobileqoe/cmd/internal/obsflag"
	"mobileqoe/internal/browser"
	"mobileqoe/internal/core"
	"mobileqoe/internal/device"
	"mobileqoe/internal/profile"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/units"
	"mobileqoe/internal/webpage"
	"mobileqoe/internal/wprof"
)

func main() {
	var (
		dev       = flag.String("device", "Google Nexus4", "catalog device name")
		mhz       = flag.Float64("mhz", 0, "pin the clock (userspace governor), MHz")
		cores     = flag.Int("cores", 0, "online cores (0 = all)")
		ramMB     = flag.Int("ram", 0, "RAM override in MB (0 = stock)")
		category  = flag.String("category", "news", "page category: news|sports|business|health|shopping")
		seed      = flag.Uint64("seed", 1, "page generation seed")
		waterfall = flag.Bool("waterfall", false, "print the full activity waterfall")
		timeline  = flag.Bool("timeline", false, "print an ASCII timeline of the trace (implies tracing)")
		prof      = flag.Bool("profile", false, "print an aggregated virtual-time profile of the load (implies tracing)")
		folded    = flag.String("folded", "", "write folded stacks (flamegraph.pl / speedscope) of the load to this file (implies tracing)")
		faults    = flag.String("faults", "", "fault-injection plan: a JSON plan file, or 'default' for the built-in mixed plan")
	)
	ob := obsflag.Register(flag.CommandLine,
		"write a Chrome trace-event JSON of the load to this file")
	flag.Parse()

	spec, err := device.ByName(*dev)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pageload:", err)
		os.Exit(1)
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
	if plan, perr := obsflag.LoadFaultPlan(*faults); perr != nil {
		fmt.Fprintln(os.Stderr, "pageload:", perr)
		os.Exit(1)
	} else if plan != nil {
		opts = append(opts, core.WithFaultPlan(plan, *seed))
	}

	page := webpage.Generate(fmt.Sprintf("%s-cli.example", *category),
		webpage.Category(*category), *seed)
	fmt.Printf("loading %s (%s, %d resources, %s) on %s\n\n",
		page.Name, page.Category, len(page.Resources), page.TotalBytes(), spec)

	if *timeline || *prof || *folded != "" {
		ob.EnableTrace()
	}
	opts = append(opts, ob.Options()...)

	rl, err := ob.RunLog.Start("pageload", 1, runlog.Manifest{
		Experiments:  []string{"pageload"},
		Seed:         *seed,
		SeedSchedule: "single cell; -seed drives page generation and the fault injector",
		Trials:       1,
		Parallel:     1,
		FaultPlan:    *faults,
	}, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pageload:", err)
		os.Exit(1)
	}

	sys := core.NewSystem(spec, opts...)
	loadStart := time.Now()
	res := sys.LoadPage(page)

	cell := runlog.Cell{ID: "pageload", Seed: *seed, Status: "ok",
		WallMS:    float64(time.Since(loadStart)) / float64(time.Millisecond),
		VirtualMS: float64(res.PLT) / float64(time.Millisecond)}
	if m := ob.Registry(); m != nil {
		// Non-creating lookups: mining must not grow the printable registry
		// with zero rows for metrics the load never touched.
		cell.VirtualMS = m.LookupCounter("sim.virtual_ms").Value()
		cell.FaultsInjected = int64(m.LookupCounter("fault.injected").Value())
		cell.FaultsRecovered = int64(m.LookupCounter("fault.recovered").Value())
	}
	rl.Cell(cell)
	if err := rl.Close(nil); err != nil {
		fmt.Fprintln(os.Stderr, "pageload:", err)
		os.Exit(1)
	}

	fmt.Printf("PLT: %v\n", res.PLT.Round(time.Millisecond))
	if res.Degraded {
		fmt.Printf("DEGRADED: %d resources abandoned, %d mem-kill restarts (ePLT over what rendered)\n",
			len(res.FailedResources), res.Restarts)
	}
	fmt.Println()

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
	fmt.Println("activity totals:")
	for _, k := range kinds {
		kk := browser.ActivityKind(k)
		fmt.Printf("  %-7s n=%-4d %v\n", k, counts[kk], byKind[kk].Round(time.Millisecond))
	}

	g := wprof.FromResult(res)
	st := g.CriticalPath()
	fmt.Printf("\ncritical path: total %v = network %v + compute %v (script %v)\n",
		st.Total.Round(time.Millisecond), st.Network.Round(time.Millisecond),
		st.Compute.Round(time.Millisecond), st.Script.Round(time.Millisecond))

	if *waterfall {
		fmt.Println("\nwaterfall:")
		for _, a := range res.Activities {
			bar := strings.Repeat(" ", int(a.Start/(50*time.Millisecond)))
			fmt.Printf("%8.3fs %-7s %s%s %s\n", a.Start.Seconds(), a.Kind, bar,
				strings.Repeat("#", 1+int(a.Duration()/(50*time.Millisecond))), a.Name)
		}
	}

	if *timeline {
		fmt.Println()
		if err := ob.Tracer().WriteASCII(os.Stdout, 100); err != nil {
			fmt.Fprintln(os.Stderr, "pageload:", err)
			os.Exit(1)
		}
	}
	if *prof {
		fmt.Println()
		fmt.Print(profile.FromTracer(ob.Tracer()).Table(30))
	}
	if *folded != "" {
		f, err := os.Create(*folded)
		if err == nil {
			err = profile.FromTracer(ob.Tracer()).WriteFolded(f, profile.WeightTime)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pageload:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote folded stacks to %s\n", *folded)
	}
	if err := ob.Flush(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pageload:", err)
		os.Exit(1)
	}
}
