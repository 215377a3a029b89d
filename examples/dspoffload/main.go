// Dspoffload walks through the paper's §4.2 prototype end to end: trace a
// sports page on the Pixel2, find the regex work inside its scripts, replay
// it on the Hexagon-like DSP model, and re-evaluate the page's dependency
// graph (ePLT) with the offloaded times — reproducing Fig. 7's headline
// numbers (≈18% faster pages, several-fold cheaper regex energy).
package main

import (
	"fmt"
	"time"

	"mobileqoe/internal/core"
	"mobileqoe/internal/device"
	"mobileqoe/internal/dsp"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/units"
	"mobileqoe/internal/webpage"
	"mobileqoe/internal/wprof"
)

func main() {
	page := webpage.SportsTop20(1)[0]
	fmt.Printf("workload: %s (%d scripts, %s)\n\n", page.Name, page.NumScripts(), page.TotalBytes())

	// 1. Trace the page load on a Pixel2 at the default governor.
	sys := core.NewSystem(device.Pixel2())
	res := sys.LoadPage(page)
	g := wprof.FromResult(res)
	fmt.Printf("measured PLT: %v; regex is %.0f%% of scripting cycles\n\n",
		res.PLT.Round(10*time.Millisecond), 100*g.RegexShare())

	// 2. Inspect the per-script offload decision at a sustained mid clock.
	d := dsp.New(sim.New(), dsp.Config{})
	rate := device.Pixel2().Big.FMax.Hz() * device.Pixel2().Big.IPC * 0.55
	fmt.Println("per-script regex work, CPU (backtracking) vs DSP (Pike VM over FastRPC):")
	shown := 0
	for _, r := range page.Resources {
		prof := r.Profile()
		if r.Type != webpage.JS || prof.NumRegexCalls() == 0 || shown >= 6 {
			continue
		}
		shown++
		cpuT := units.DurationFor(prof.RegexCPUCycles(), units.Freq(rate))
		dspT := prof.RegexDSPTime(d)
		verdict := "keep on CPU"
		if dspT < cpuT {
			verdict = "offload"
		}
		fmt.Printf("  %-38s cpu %-10v dsp %-10v -> %s\n",
			r.URL[len(r.URL)-30:], cpuT.Round(10*time.Microsecond),
			dspT.Round(10*time.Microsecond), verdict)
	}

	// 3. Re-evaluate the dependency graph: the paper's ePLT methodology.
	base := g.EPLT(wprof.EvalOptions{EffectiveRate: rate})
	off := g.EPLT(wprof.EvalOptions{EffectiveRate: rate, Offload: true, DSP: d})
	fmt.Printf("\nePLT: %v (CPU) -> %v (DSP offload), %.1f%% improvement\n",
		base.Round(10*time.Millisecond), off.Round(10*time.Millisecond),
		100*(1-off.Seconds()/base.Seconds()))

	// 4. And at low clocks, where the paper found up to 25% gains (Fig. 7c).
	fmt.Println("\nePLT vs pinned clock (cf. Fig. 7c):")
	for _, f := range device.DSPFreqSteps() {
		r := f.Hz() * device.Pixel2().Big.IPC
		b := g.EPLT(wprof.EvalOptions{EffectiveRate: r})
		o := g.EPLT(wprof.EvalOptions{EffectiveRate: r, Offload: true, DSP: d})
		fmt.Printf("  %8s  cpu %-8v dsp %-8v improvement %.1f%%\n",
			f, b.Round(10*time.Millisecond), o.Round(10*time.Millisecond),
			100*(1-o.Seconds()/b.Seconds()))
	}

	// 5. RPC-overhead sensitivity: where offloading stops paying.
	fmt.Println("\nePLT gain vs FastRPC overhead (ablation):")
	for _, oh := range []time.Duration{10 * time.Microsecond, 100 * time.Microsecond,
		time.Millisecond, 5 * time.Millisecond} {
		dd := dsp.New(sim.New(), dsp.Config{RPCOverhead: oh})
		o := g.EPLT(wprof.EvalOptions{EffectiveRate: rate, Offload: true, DSP: dd})
		fmt.Printf("  rpc %-8v gain %.1f%%\n", oh, 100*(1-o.Seconds()/base.Seconds()))
	}
}
