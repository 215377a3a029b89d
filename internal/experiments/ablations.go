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
	"mobileqoe/internal/video"
	"mobileqoe/internal/webpage"
	"mobileqoe/internal/wprof"
)

func init() {
	register("abl-packetcpu", "Ablation: packet processing charged to the CPU vs free (§4.1)", ablPacketCPU)
	register("abl-prefetch", "Ablation: streaming read-ahead window on a lossy link", ablPrefetch)
	register("abl-hwdecoder", "Ablation: hardware vs software video decode", ablHWDecoder)
	register("abl-rpc", "Ablation: FastRPC overhead vs offload benefit", ablRPC)
	register("abl-engine", "Ablation: backtracking vs Pike VM regex engines", ablEngine)
	register("abl-biglittle", "Ablation: foreground placement on big vs little cluster", ablBigLittle)
}

func ablPacketCPU(cfg Config) (*Table, error) {
	t := &Table{ID: "abl-packetcpu", Title: "Clock sensitivity with and without CPU-charged packet processing",
		Columns: []string{"config", "tput_384_mbps", "tput_1512_mbps", "plt_384_s", "plt_1512_s"}}
	pages := takePages(cfg, 2)
	for _, charged := range []bool{true, false} {
		opts := func(f units.Freq) []core.Option {
			o := []core.Option{core.WithClock(f)}
			if !charged {
				o = append(o, core.WithoutPacketCPUCharge())
			}
			return o
		}
		tputAt := func(f units.Freq) (float64, error) {
			sys := cfg.NewSystem(device.Nexus4(), opts(f)...)
			res, err := sys.Run(core.IperfWorkload{Duration: cfg.IperfDuration})
			if err != nil {
				return 0, err
			}
			return res.Iperf.Throughput.Mbpsf(), nil
		}
		pltAt := func(f units.Freq) (float64, error) {
			s, err := avgPLTOn(cfg, device.Nexus4(), pages, opts(f)...)
			if err != nil {
				return 0, err
			}
			return s.Mean(), nil
		}
		label := "charged"
		if !charged {
			label = "free"
		}
		tputLo, err := tputAt(units.MHz(384))
		if err != nil {
			return nil, err
		}
		tputHi, err := tputAt(units.MHz(1512))
		if err != nil {
			return nil, err
		}
		pltLo, err := pltAt(units.MHz(384))
		if err != nil {
			return nil, err
		}
		pltHi, err := pltAt(units.MHz(1512))
		if err != nil {
			return nil, err
		}
		t.AddRow(label, mbps(tputLo), mbps(tputHi), ratio(pltLo), ratio(pltHi))
	}
	t.Notes = append(t.Notes,
		"charging packet processing creates the Fig. 6 throughput cliff and part of the Web slowdown")
	return t, nil
}

func ablPrefetch(cfg Config) (*Table, error) {
	t := &Table{ID: "abl-prefetch", Title: "Streaming stalls vs read-ahead on a 2%-loss link (Nexus4 @384MHz)",
		Columns: []string{"prefetch", "startup_s", "stall_ratio"}}
	run := func(disable bool) (video.Metrics, error) {
		opts := []core.Option{
			core.WithClock(units.MHz(384)),
			core.WithNetwork(netsim.Config{ChargeCPU: true, Loss: 0.02}),
		}
		if disable {
			opts = append(opts, core.WithoutPrefetch())
		}
		sys := cfg.NewSystem(device.Nexus4(), opts...)
		res, err := sys.Run(core.VideoStream{Config: video.StreamConfig{Duration: 2 * cfg.ClipDuration}})
		if err != nil {
			return video.Metrics{}, err
		}
		return *res.Video, nil
	}
	with, err := run(false)
	if err != nil {
		return nil, err
	}
	without, err := run(true)
	if err != nil {
		return nil, err
	}
	t.AddRow("120s (default)", secs(with.StartupLatency), fmt.Sprintf("%.3f", with.StallRatio))
	t.AddRow("disabled", secs(without.StartupLatency), fmt.Sprintf("%.3f", without.StallRatio))
	t.Notes = append(t.Notes,
		"the read-ahead buffer is what hides transient trouble; telephony has no such buffer")
	return t, nil
}

func ablHWDecoder(cfg Config) (*Table, error) {
	t := &Table{ID: "abl-hwdecoder", Title: "Streaming with and without the hardware decoder (Nexus4 @1512MHz)",
		Columns: []string{"decoder", "startup_s", "stall_ratio"}}
	run := func(sw bool) (video.Metrics, error) {
		opts := []core.Option{core.WithClock(units.MHz(1512))}
		if sw {
			opts = append(opts, core.WithoutHardwareDecoder())
		}
		sys := cfg.NewSystem(device.Nexus4(), opts...)
		res, err := sys.Run(core.VideoStream{Config: video.StreamConfig{Duration: cfg.ClipDuration}})
		if err != nil {
			return video.Metrics{}, err
		}
		return *res.Video, nil
	}
	hw, err := run(false)
	if err != nil {
		return nil, err
	}
	sw, err := run(true)
	if err != nil {
		return nil, err
	}
	t.AddRow("hardware", secs(hw.StartupLatency), fmt.Sprintf("%.3f", hw.StallRatio))
	t.AddRow("software", secs(sw.StartupLatency), fmt.Sprintf("%.3f", sw.StallRatio))
	t.Notes = append(t.Notes,
		"the counterfactual behind Takeaway 2: without the accelerator, even full clock stalls")
	return t, nil
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
	// Corpus workload: every regex call recorded on the sports pages.
	var bt, pike int64
	for _, p := range sportsPages(cfg) {
		for _, r := range p.Resources {
			if r.Type != webpage.JS {
				continue
			}
			for _, call := range r.Profile().Calls {
				bt += call.BTSteps
				pike += call.PikeSteps
			}
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

func ablBigLittle(cfg Config) (*Table, error) {
	t := &Table{ID: "abl-biglittle", Title: "Foreground placement policy on a big.LITTLE flagship",
		Columns: []string{"policy", "plt_s(mean±std)"}}
	pages := takePages(cfg, 3)
	onBig := device.GalaxyS6Edge()
	onBig.ForegroundOnBig = true
	for _, spec := range []device.Spec{device.GalaxyS6Edge(), onBig} {
		label := "foreground-on-little (stock S6-edge)"
		if spec.ForegroundOnBig {
			label = "foreground-on-big (Pixel2-style)"
		}
		s, err := avgPLTOn(cfg, spec, pages)
		if err != nil {
			return nil, err
		}
		t.AddRow(label, meanStd(s.Mean(), s.Std()))
	}
	t.Notes = append(t.Notes,
		"the scheduling policy, not the silicon, explains the paper's Pixel2-vs-S6 outlier")
	return t, nil
}
