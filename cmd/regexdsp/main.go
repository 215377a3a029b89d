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
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mobileqoe/cmd/internal/obsflag"
	"mobileqoe/internal/dsp"
	"mobileqoe/internal/rex"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/sim"
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

func main() {
	var (
		pattern = flag.String("pattern", "", "run a single pattern instead of the suite")
		input   = flag.String("input", "", "input string for -pattern")
		repeat  = flag.Float64("repeat", 400, "evaluations batched per offloaded RPC")
		cpuMHz  = flag.Float64("cpu-mhz", 2457, "application core clock (MHz)")
		cpuIPC  = flag.Float64("cpu-ipc", 1.9, "application core IPC")
	)
	ob := obsflag.Register(flag.CommandLine,
		"replay the suite as simulated FastRPC calls and write a Chrome trace-event JSON to this file")
	flag.Parse()

	work := suite
	if *pattern != "" {
		work = []workload{{"custom", *pattern, *input}}
	}
	rl, err := ob.RunLog.Start("regexdsp", len(work), runlog.Manifest{
		Experiments:  []string{"regexdsp"},
		SeedSchedule: "one cell per suite workload; pricing is analytic (no seeded randomness)",
		Trials:       1,
		Parallel:     1,
	}, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "regexdsp:", err)
		os.Exit(1)
	}
	s := sim.New()
	dcfg := dsp.Config{Obs: ob.Ctx("regexdsp")}
	tr := ob.Tracer()
	d := dsp.New(s, dcfg)
	rate := units.MHz(*cpuMHz).Hz() * *cpuIPC

	// Batched RPCs replayed through the simulator when tracing; each entry
	// becomes one real d.Call so the trace shows queueing behind earlier
	// batches, not just the analytic latency the table prints.
	type rpc struct {
		steps int64
		bytes int
	}
	var replay []rpc

	fmt.Printf("%-19s %-11s %-11s %-11s %-11s %s\n",
		"workload", "bt-steps", "pike-steps", "cpu-time", "dsp-time", "winner")
	for i, w := range work {
		cellStart := time.Now()
		prog, err := rex.Compile(w.pattern)
		if err != nil {
			fmt.Printf("%-19s compile error: %v\n", w.name, err)
			rl.Cell(runlog.Cell{Index: i, ID: w.name, Status: "error",
				ErrorClass: "error", Error: err.Error(),
				WallMS: float64(time.Since(cellStart)) / float64(time.Millisecond)})
			continue
		}
		pr := prog.Run(w.input)
		br, btErr := prog.RunBacktrack(w.input, 0)

		cpuCycles := dsp.CPUCycles(br.Steps) * *repeat
		cpuTime := units.DurationFor(cpuCycles, units.Freq(rate))
		dspTime := d.ServiceTime(int64(float64(pr.Steps)**repeat)) +
			d.Config().RPCOverhead +
			time.Duration(float64(len(w.input))**repeat/1024*float64(d.Config().MarshalPerKB))

		if tr != nil {
			replay = append(replay, rpc{
				steps: int64(float64(pr.Steps) * *repeat),
				bytes: int(float64(len(w.input)) * *repeat),
			})
		}

		btSteps := fmt.Sprintf("%d", br.Steps)
		if btErr != nil {
			btSteps += "!"
		}
		winner := "CPU"
		if dspTime < cpuTime {
			winner = "DSP"
		}
		fmt.Printf("%-19s %-11s %-11d %-11s %-11s %s\n",
			w.name, btSteps, pr.Steps,
			cpuTime.Round(time.Microsecond), dspTime.Round(time.Microsecond), winner)
		rl.Cell(runlog.Cell{Index: i, ID: w.name, Status: "ok",
			WallMS: float64(time.Since(cellStart)) / float64(time.Millisecond)})
	}
	if err := rl.Close(nil); err != nil {
		fmt.Fprintln(os.Stderr, "regexdsp:", err)
		os.Exit(1)
	}
	fmt.Printf("\n(batch=%0.f evaluations/RPC; '!' = backtracking step limit hit; DSP %s @ %.2f cyc/step, RPC %v)\n",
		*repeat, d.Config().Freq, dsp.DSPCyclesPerStep, d.Config().RPCOverhead)

	if tr != nil {
		// Issue the batches back-to-back: each call fires when the previous
		// result returns, the FIFO the offload prototype's caller sees.
		var issue func(i int)
		issue = func(i int) {
			if i >= len(replay) {
				return
			}
			d.Call(replay[i].steps, replay[i].bytes, func() { issue(i + 1) })
		}
		issue(0)
		s.Run()
	}
	if err := ob.Flush(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "regexdsp:", err)
		os.Exit(1)
	}
}
