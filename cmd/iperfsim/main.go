// Command iperfsim reproduces the paper's §4.1 network study: bulk TCP
// throughput into the phone as a function of CPU clock frequency (Fig. 6).
//
// Usage:
//
//	iperfsim                          # the full Nexus4 clock sweep
//	iperfsim -duration 10s            # longer measurements
//	iperfsim -free                    # ablation: packet processing costs nothing
//	iperfsim -faults default          # throughput under the mixed fault plan
//	iperfsim -trace sweep.json        # one Chrome trace of the whole sweep
//	iperfsim -metrics                 # kernel metrics accumulated over the sweep
//	iperfsim -telemetry :9090         # live Prometheus /metrics during the sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mobileqoe/cmd/internal/obsflag"
	"mobileqoe/internal/core"
	"mobileqoe/internal/device"
	"mobileqoe/internal/runlog"
)

func main() {
	var (
		duration = flag.Duration("duration", 3*time.Second, "measurement duration per step")
		free     = flag.Bool("free", false, "do not charge packet processing to the CPU (ablation)")
		faults   = flag.String("faults", "", "fault-injection plan: a JSON plan file, or 'default' for the built-in mixed plan")
		seed     = flag.Uint64("seed", 1, "fault-injector seed")
	)
	ob := obsflag.Register(flag.CommandLine,
		"write a Chrome trace-event JSON of the whole sweep to this file (one trace process per clock step)")
	flag.Parse()

	plan, err := obsflag.LoadFaultPlan(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iperfsim:", err)
		os.Exit(1)
	}

	obsOpts := ob.Options()
	steps := device.Nexus4FreqSteps()
	rl, err := ob.RunLog.Start("iperfsim", len(steps), runlog.Manifest{
		Experiments:  []string{"iperf"},
		Seed:         *seed,
		SeedSchedule: "one cell per Nexus4 clock step, all under the same -seed (fault injector only)",
		Trials:       1,
		Parallel:     1,
		FaultPlan:    *faults,
	}, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iperfsim:", err)
		os.Exit(1)
	}
	fmt.Printf("iperf server -> Nexus4 over the 72 Mbps AP (10 ms RTT), %v per step\n", *duration)
	fmt.Printf("%-10s %s\n", "clock", "goodput")
	// The shared registry accumulates over the sweep, so per-cell counter
	// values are deltas between steps.
	var prevVirt, prevInj, prevRec float64
	for i, f := range steps {
		opts := append([]core.Option{core.WithClock(f)}, obsOpts...)
		if *free {
			opts = append(opts, core.WithoutPacketCPUCharge())
		}
		if plan != nil {
			opts = append(opts, core.WithFaultPlan(plan, *seed))
		}
		stepStart := time.Now()
		sys := core.NewSystem(device.Nexus4(), opts...)
		r := sys.Iperf(*duration)
		fmt.Printf("%-10s %.1f Mbps\n", f, r.Throughput.Mbpsf())
		cell := runlog.Cell{Index: i, ID: "iperf:" + f.String(), Seed: *seed, Status: "ok",
			WallMS:    float64(time.Since(stepStart)) / float64(time.Millisecond),
			VirtualMS: float64(*duration) / float64(time.Millisecond)}
		if m := ob.Registry(); m != nil {
			// Non-creating lookups: mining must not grow the printable
			// registry with zero rows for metrics the sweep never touched.
			virt := m.LookupCounter("sim.virtual_ms").Value()
			inj := m.LookupCounter("fault.injected").Value()
			rec := m.LookupCounter("fault.recovered").Value()
			cell.VirtualMS = virt - prevVirt
			cell.FaultsInjected = int64(inj - prevInj)
			cell.FaultsRecovered = int64(rec - prevRec)
			prevVirt, prevInj, prevRec = virt, inj, rec
		}
		rl.Cell(cell)
	}
	if err := rl.Close(nil); err != nil {
		fmt.Fprintln(os.Stderr, "iperfsim:", err)
		os.Exit(1)
	}

	if err := ob.Flush(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "iperfsim:", err)
		os.Exit(1)
	}
}
