// Command regexdsp prices regular-expression workloads on the CPU's
// backtracking engine versus the DSP's Pike VM — the §4.2 offload
// prototype's microbenchmark view.
//
// Usage:
//
//	regexdsp                                  # built-in workload suite
//	regexdsp -pattern '(ads|track)/' -input 'https://x.com/ads/unit.js' -repeat 500
//	regexdsp -telemetry metrics.prom          # Prometheus snapshot of the suite
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"mobileqoe/cmd/internal/obsflag"
	"mobileqoe/internal/device"
	"mobileqoe/internal/dsp"
	"mobileqoe/internal/experiments"
	"mobileqoe/internal/rex"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/trace"
	"mobileqoe/internal/units"
)

type workload struct {
	name    string
	pattern string
	input   string
}

var suite = []workload{
	{"url-classify", `/(ads|adserv|banner)/`, "https://cdn3.example-site.com/ads/unit/item-3.js"},
	{"tracker-match", `(track|beacon|pixel)s?/`, "https://static.example.com/beacons/v2/e?id=1"},
	{"query-extract", `sid=s[0-9]+`, "https://collect.example.com/e?v=1&sid=s219&t=pageview"},
	{"responsive-rewrite", `w_[0-9]+,h_[0-9]+`, "https://media.example.com/photos/w_1200,h_800/item.jpg"},
	{"long-scan", `quarterly[0-9]+`, strings.Repeat("market update index analysis ", 60) + "quarterly7"},
	{"pathological", `(a+)+$`, strings.Repeat("a", 24) + "b"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args on its own flag set and returns
// the exit code, so tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("regexdsp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	big := device.Pixel2().Big // the defaults price the CPU side on a Pixel2 big core
	var (
		pattern = fs.String("pattern", "", "run a single pattern instead of the suite")
		input   = fs.String("input", "", "input string for -pattern")
		repeat  = fs.Float64("repeat", 400, "evaluations batched per offloaded RPC")
		cpuMHz  = fs.Float64("cpu-mhz", big.FMax.MHz(), "application core clock (MHz)")
		cpuIPC  = fs.Float64("cpu-ipc", big.IPC, "application core IPC")
	)
	ob := obsflag.Register(fs,
		"write a Chrome trace-event JSON of each workload's FastRPC call, one trace process per workload, to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	for _, f := range []struct {
		name string
		v    float64
	}{{"repeat", *repeat}, {"cpu-mhz", *cpuMHz}, {"cpu-ipc", *cpuIPC}} {
		if !(f.v > 0) || math.IsInf(f.v, 0) {
			fmt.Fprintf(stderr, "regexdsp: -%s must be positive and finite, got %v\n", f.name, f.v)
			return 2
		}
	}

	work := suite
	if *pattern != "" {
		work = []workload{{"custom", *pattern, *input}}
	}
	// Each workload is one runner cell, resolved by name; the runner hands
	// it its tracer and registry, and the observer records it.
	ids := make([]string, len(work))
	cells := map[string]experiments.Runner{}
	rate := units.MHz(*cpuMHz).Hz() * *cpuIPC
	for i, w := range work {
		ids[i] = w.name
		cells[w.name] = price(w, *repeat, rate)
	}
	// Pricing draws no randomness: the cells run at seed 0, as the manifest
	// records.
	cfg := experiments.Config{}.WithSeed(0)
	ob.Configure(&cfg)
	rl, err := ob.RunLog.Start(stderr, "regexdsp", len(work), runlog.Manifest{
		Experiments:  ids,
		SeedSchedule: "one cell per suite workload; pricing is analytic (no seeded randomness)",
		Trials:       1,
		Parallel:     1,
	}, nil)
	if err != nil {
		fmt.Fprintln(stderr, "regexdsp:", err)
		return 1
	}
	tr := trace.New()
	seq := runner.NewInorder(len(ids), tr.Append)
	results, err := runner.Run(context.Background(), ids, cfg, runner.Options{
		Parallel: 1,
		Trace:    ob.TraceOut != "",
		Resolve: func(id string) (experiments.Runner, bool) {
			fn, ok := cells[id]
			return fn, ok
		},
		Progress: func(ev runner.Event) { seq.Put(ev.Index, ev.Trace) },
		Stream:   rl.Stream,
	})
	if cerr := rl.Close(err); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "regexdsp:", err)
		return 1
	}

	fmt.Fprintf(stdout, "%-19s %-11s %-11s %-11s %-11s %s\n",
		"workload", "bt-steps", "pike-steps", "cpu-time", "dsp-time", "winner")
	var tables []*experiments.Table
	exit := 0
	for _, r := range results {
		var ce compileError
		switch {
		case errors.As(r.Err, &ce):
			// The row names the error; the exit code says a cell failed, as
			// the run log's summary does.
			fmt.Fprintf(stdout, "%-19s compile error: %v\n", r.ID, ce.error)
			exit = 1
			continue
		case r.Err != nil:
			fmt.Fprintln(stderr, "regexdsp:", r.Err)
			return 1
		}
		row := r.Table.Rows[0]
		fmt.Fprintf(stdout, "%-19s %-11s %-11s %-11s %-11s %s\n", row[0], row[1], row[2], row[3], row[4], row[5])
		tables = append(tables, r.Table)
	}
	fmt.Fprintf(stdout, "\n(batch=%0.f evaluations/RPC; '!' = backtracking step limit hit; DSP %s @ %.2f cyc/step, RPC %v)\n",
		*repeat, dsp.Freq, dsp.DSPCyclesPerStep, dsp.DefaultRPCOverhead)
	if err := ob.Write(stdout, experiments.MergeMetrics(tables), tr); err != nil {
		fmt.Fprintln(stderr, "regexdsp:", err)
		return 1
	}
	return exit
}

// compileError marks a workload whose pattern does not compile: its row
// reports the error and its run-log cell fails.
type compileError struct{ error }

// price is the cell of one workload: it prices w on the CPU's backtracking
// engine at rate instructions per second and on the DSP's Pike VM, batched
// repeat evaluations per RPC, and replays the batch as one FastRPC call
// through a simulated DSP, so the cell's trace and registry show the call.
func price(w workload, repeat, rate float64) experiments.Runner {
	return func(c experiments.Config) (*experiments.Table, error) {
		prog, err := rex.Compile(w.pattern)
		if err != nil {
			return nil, compileError{err}
		}
		pr := prog.Run(w.input)
		br, btErr := prog.RunBacktrack(w.input, 0)

		s := sim.New()
		d := dsp.New(s, dsp.Config{Obs: c.Obs(w.name)})
		cpuCycles := dsp.CPUCycles(br.Steps) * repeat
		cpuTime := units.DurationFor(cpuCycles, units.Freq(rate))
		steps, bytes := int64(float64(pr.Steps)*repeat), int(float64(len(w.input))*repeat)
		dspTime := d.Latency(steps, bytes)
		d.Call(steps, bytes, nil)
		s.Run()

		btSteps := fmt.Sprintf("%d", br.Steps)
		if btErr != nil {
			btSteps += "!"
		}
		winner := "CPU"
		if dspTime < cpuTime {
			winner = "DSP"
		}
		tab := &experiments.Table{ID: w.name}
		tab.AddRow(w.name, btSteps, fmt.Sprintf("%d", pr.Steps),
			cpuTime.Round(time.Microsecond).String(), dspTime.Round(time.Microsecond).String(), winner)
		return tab, nil
	}
}
