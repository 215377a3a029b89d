package experiments

import (
	"fmt"
	"strings"
	"time"

	"mobileqoe/internal/core"
	"mobileqoe/internal/device"
	"mobileqoe/internal/dsp"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/rex"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/stats"
	"mobileqoe/internal/units"
	"mobileqoe/internal/webpage"
	"mobileqoe/internal/wprof"
)

func init() {
	registerSweep("Ablation: packet processing charged to the CPU vs free (§4.1)", ablPacketCPU)
	register("abl-prefetch", "Ablation: streaming read-ahead window on a lossy link", ablPrefetch)
	registerSweep("Ablation: hardware vs software video decode", ablHWDecoder)
	register("abl-rpc", "Ablation: FastRPC overhead vs offload benefit", ablRPC)
	register("abl-engine", "Ablation: backtracking vs Pike VM regex engines", ablEngine)
	registerSweep("Ablation: foreground placement on big vs little cluster", ablBigLittle)
}

func ablPacketCPU() *Sweep {
	nexus := device.Nexus4()
	return &Sweep{ID: "abl-packetcpu", Title: "Clock sensitivity with and without CPU-charged packet processing",
		Axis: "config", Pages: 2,
		Points: []Point{{"charged", nexus, nil}, {"free", nexus, []core.Option{core.WithoutPacketCPUCharge()}}},
		Variants: append(clockVariants(Workload{Kind: KindIperf}, 384, 1512),
			clockVariants(Workload{Kind: KindPage}, 384, 1512)...),
		Columns: []string{"tput_384_mbps", "tput_1512_mbps", "plt_384_s", "plt_1512_s"},
		Row: func(_ int, m []Measure) []string {
			return []string{mbps(m[0].Iperf.Throughput.Mbpsf()), mbps(m[1].Iperf.Throughput.Mbpsf()),
				ratio(m[2].PLT.Mean()), ratio(m[3].PLT.Mean())}
		},
		Notes: []string{"charging packet processing creates the Fig. 6 throughput cliff and part of the Web slowdown"}}
}

// ablPrefetch streams clips twice the configured length.
func ablPrefetch(cfg Config) (*Table, error) {
	cfg.ClipDuration *= 2
	nexus := device.Nexus4()
	lossy := []core.Option{core.WithClock(units.MHz(384)), core.WithNetwork(netsim.Config{ChargeCPU: true, Loss: 0.02})}
	s := &Sweep{ID: "abl-prefetch", Title: "Streaming stalls vs read-ahead on a 2%-loss link (Nexus4 @384MHz)",
		Axis: "prefetch", Workload: Workload{Kind: KindVideo},
		Points:  []Point{{"120s (default)", nexus, lossy}, {"disabled", nexus, append(lossy, core.WithoutPrefetch())}},
		Columns: []string{"startup_s", "stall_ratio"}, Row: startupStall,
		Notes: []string{"the read-ahead buffer is what hides transient trouble; telephony has no such buffer"}}
	return s.Run(cfg)
}

func ablHWDecoder() *Sweep {
	nexus, hi := device.Nexus4(), core.WithClock(units.MHz(1512))
	return &Sweep{ID: "abl-hwdecoder", Title: "Streaming with and without the hardware decoder (Nexus4 @1512MHz)",
		Axis: "decoder", Workload: Workload{Kind: KindVideo},
		Points: []Point{{"hardware", nexus, []core.Option{hi}},
			{"software", nexus, []core.Option{hi, core.WithoutHardwareDecoder()}}},
		Columns: []string{"startup_s", "stall_ratio"}, Row: startupStall,
		Notes: []string{"the counterfactual behind Takeaway 2: without the accelerator, even full clock stalls"}}
}

// startupStall is a streaming row's startup and stall cells.
func startupStall(_ int, m []Measure) []string {
	return []string{secs(m[0].Video.StartupLatency), fmt.Sprintf("%.3f", m[0].Video.StallRatio)}
}

func ablRPC(cfg Config) (*Table, error) {
	t := &Table{ID: "abl-rpc", Title: "Offload ePLT gain vs FastRPC overhead (Pixel2, sports pages)",
		Columns: []string{"rpc_overhead", "eplt_gain"}}
	graphs, rate, err := sportsGraphs(cfg)
	if err != nil {
		return nil, err
	}
	for _, oh := range []time.Duration{0, 50 * time.Microsecond, 100 * time.Microsecond,
		500 * time.Microsecond, 2 * time.Millisecond, 10 * time.Millisecond} {
		d := dsp.New(sim.New(), dsp.Config{RPCOverhead: oh})
		if oh == 0 {
			d = dsp.New(sim.New(), dsp.Config{RPCOverhead: time.Nanosecond})
		}
		var gain stats.Sample
		for _, g := range graphs {
			base := g.EPLT(wprof.EvalOptions{EffectiveRate: rate}).Seconds()
			off := g.EPLT(wprof.EvalOptions{EffectiveRate: rate, Offload: true, DSP: d}).Seconds()
			gain.Add(1 - off/base)
		}
		t.AddRow(oh.String(), pct(gain.Mean()))
	}
	t.Notes = append(t.Notes, "past some per-call overhead, offloading stops paying")
	return t, nil
}

func ablEngine(cfg Config) (*Table, error) {
	t := &Table{ID: "abl-engine", Title: "Regex engine steps: backtracking vs Pike VM",
		Columns: []string{"workload", "bt_steps", "pike_steps", "bt/pike"}}
	// Corpus workload: every regex call counted on the sports pages.
	var bt, pike int64
	for _, p := range sportsPages(cfg) {
		for _, r := range p.Resources {
			if r.Type != webpage.JS {
				continue
			}
			reg := r.Profile().Regex
			bt += reg.BTSteps
			pike += reg.PikeSteps
		}
	}
	t.AddRow("sports-page corpus", fmt.Sprintf("%d", bt), fmt.Sprintf("%d", pike),
		ratio(float64(bt)/float64(pike)))
	// Pathological pattern: catastrophic backtracking. The Pike VM and the
	// lazy DFA both stay linear.
	prog := rex.MustCompile("(a+)+$")
	input := strings.Repeat("a", 26) + "b"
	pr := prog.Run(input)
	br, err := prog.RunBacktrack(input, 5_000_000)
	_, dfaSteps := prog.NewDFA().Match(input)
	btSteps := fmt.Sprintf("%d", br.Steps)
	if err != nil {
		btSteps += " (limit)"
	}
	t.AddRow("(a+)+$ on a^26 b", btSteps, fmt.Sprintf("%d", pr.Steps),
		ratio(float64(br.Steps)/float64(pr.Steps)))
	t.AddRow("(a+)+$ lazy-DFA", fmt.Sprintf("%d", dfaSteps), fmt.Sprintf("%d", pr.Steps),
		ratio(float64(dfaSteps)/float64(pr.Steps)))
	t.Notes = append(t.Notes,
		"the Pike VM's linear-time guarantee is what makes regex a safe DSP offload target;",
		"a warm lazy DFA (third engine, rex.NewDFA) scans at ~1 step/rune")
	return t, nil
}

func ablBigLittle() *Sweep {
	onBig := device.GalaxyS6Edge()
	onBig.ForegroundOnBig = true
	return &Sweep{ID: "abl-biglittle", Title: "Foreground placement policy on a big.LITTLE flagship",
		Axis: "policy", Workload: Workload{Kind: KindPage}, Pages: 3,
		Points: []Point{{"foreground-on-little (stock S6-edge)", device.GalaxyS6Edge(), nil},
			{"foreground-on-big (Pixel2-style)", onBig, nil}},
		Notes: []string{"the scheduling policy, not the silicon, explains the paper's Pixel2-vs-S6 outlier"}}
}
