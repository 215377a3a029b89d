package video

import (
	"testing"
	"time"

	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/mem"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/units"
)

type runCfg struct {
	spec     device.Spec
	governor cpu.GovernorKind
	usFreq   units.Freq
	cores    int
	ram      units.ByteSize
	loss     float64
	tweak    func(*Config)
	stream   StreamConfig
}

func play(t *testing.T, rc runCfg) Metrics {
	t.Helper()
	s := sim.New()
	ccfg := cpu.FromSpec(rc.spec, rc.governor)
	ccfg.UserspaceFreq = rc.usFreq
	c := cpu.New(s, ccfg)
	if rc.cores > 0 {
		c.SetOnlineCores(rc.cores)
	}
	n := netsim.New(s, c, netsim.Config{ChargeCPU: true, Loss: rc.loss})
	cfg := Config{Sim: s, CPU: c, Net: n, Spec: rc.spec}
	if rc.ram > 0 {
		cfg.Mem = mem.New(mem.Config{RAM: rc.ram})
	}
	if rc.tweak != nil {
		rc.tweak(&cfg)
	}
	var m Metrics
	fired := false
	Stream(cfg, rc.stream, func(got Metrics) { m = got; fired = true; c.Stop() })
	s.RunUntil(time.Hour)
	c.Stop()
	s.Run()
	if !fired {
		t.Fatal("stream never finished")
	}
	return m
}

// shortClip keeps unit tests fast; shape conclusions carry to 5 min.
func shortClip() StreamConfig { return StreamConfig{Duration: 60 * time.Second} }

func nexus4(mhz float64) runCfg {
	return runCfg{spec: device.Nexus4(), governor: cpu.Userspace,
		usFreq: units.MHz(mhz), stream: shortClip()}
}

func TestStartupLatencyGrowsAtLowClockFig4a(t *testing.T) {
	high := play(t, nexus4(1512))
	low := play(t, nexus4(384))
	if high.StartupLatency < 500*time.Millisecond || high.StartupLatency > 3*time.Second {
		t.Fatalf("startup at 1512 MHz = %v, want ~1.2-2s", high.StartupLatency)
	}
	if low.StartupLatency < 2500*time.Millisecond || low.StartupLatency > 6*time.Second {
		t.Fatalf("startup at 384 MHz = %v, want ~3.5-5.5s", low.StartupLatency)
	}
	ratio := float64(low.StartupLatency) / float64(high.StartupLatency)
	if ratio < 1.8 || ratio > 4 {
		t.Fatalf("startup ratio = %.2f, want ~3x", ratio)
	}
}

func TestZeroStallsAcrossClockSweepFig4a(t *testing.T) {
	// The paper's headline: the stall ratio is ~0 across the entire clock
	// sweep because decode is in hardware, demux is parallel, and the player
	// prefetches.
	for _, mhz := range []float64{384, 702, 1026, 1512} {
		m := play(t, nexus4(mhz))
		if m.StallRatio > 0.02 {
			t.Fatalf("stall ratio at %v MHz = %.3f, want ~0", mhz, m.StallRatio)
		}
	}
}

func TestSingleCoreStallsFig4c(t *testing.T) {
	// Fig 4c: a single core stalls (~15%) and adds seconds of startup; the
	// default four cores play cleanly.
	four := play(t, runCfg{spec: device.Nexus4(), governor: cpu.Interactive, stream: shortClip()})
	one := play(t, runCfg{spec: device.Nexus4(), governor: cpu.Interactive, cores: 1, stream: shortClip()})
	if four.StallRatio > 0.02 {
		t.Fatalf("4-core stall ratio = %.3f, want ~0", four.StallRatio)
	}
	if one.StallRatio < 0.05 || one.StallRatio > 0.45 {
		t.Fatalf("1-core stall ratio = %.3f, want ~0.15", one.StallRatio)
	}
	if one.StartupLatency < four.StartupLatency+time.Second {
		t.Fatalf("1-core startup (%v) should exceed 4-core (%v) by seconds",
			one.StartupLatency, four.StartupLatency)
	}
}

func TestDeviceSweepFig2b(t *testing.T) {
	// Fig 2b: startup shrinks from low-end to high-end; stall ratio ~0
	// everywhere; the Intex is served 480p, not FullHD.
	var intex, pixel2 Metrics
	for _, spec := range device.Catalog() {
		m := play(t, runCfg{spec: spec, governor: cpu.Interactive, stream: shortClip()})
		if m.StallRatio > 0.05 {
			t.Fatalf("%s stalls %.3f, want ~0", spec.Name, m.StallRatio)
		}
		switch spec.Name {
		case "Intex Amaze+":
			intex = m
		case "Google Pixel2":
			pixel2 = m
		}
	}
	if intex.StartupLatency <= pixel2.StartupLatency {
		t.Fatalf("low-end startup (%v) should exceed high-end (%v)",
			intex.StartupLatency, pixel2.StartupLatency)
	}
	if intex.Rung.Name == "1080p" {
		t.Fatal("YouTube should not serve FullHD to the Intex")
	}
	if pixel2.Rung.Name != "1080p" {
		t.Fatalf("Pixel2 should stream 1080p, got %s", pixel2.Rung.Name)
	}
}

func TestPowersaveGovernorStartup(t *testing.T) {
	pf := play(t, runCfg{spec: device.Nexus4(), governor: cpu.Performance, stream: shortClip()})
	pw := play(t, runCfg{spec: device.Nexus4(), governor: cpu.Powersave, stream: shortClip()})
	if pw.StartupLatency <= pf.StartupLatency {
		t.Fatalf("powersave startup (%v) should exceed performance (%v)",
			pw.StartupLatency, pf.StartupLatency)
	}
	if pw.StallRatio > 0.05 {
		t.Fatalf("powersave stall ratio = %.3f, want ~0 (prefetch hides it)", pw.StallRatio)
	}
}

func TestMemorySqueezeFig4b(t *testing.T) {
	big := play(t, func() runCfg { rc := nexus4(1512); rc.ram = 2 * units.GB; return rc }())
	small := play(t, func() runCfg { rc := nexus4(1512); rc.ram = 512 * units.MB; return rc }())
	if small.StartupLatency <= big.StartupLatency {
		t.Fatalf("memory squeeze should slow startup: %v vs %v",
			small.StartupLatency, big.StartupLatency)
	}
	if small.StallRatio > 0.05 {
		t.Fatalf("stalls should stay ~0 under memory pressure, got %.3f", small.StallRatio)
	}
}

func TestPrefetchAblation(t *testing.T) {
	// The read-ahead buffer is what absorbs transient network trouble; on a
	// lossy link, disabling prefetch turns dips into stalls (this is the
	// paper's explanation of why interactive telephony suffers where
	// streaming does not).
	lossy := nexus4(384)
	lossy.loss = 0.02
	lossy.stream.Duration = 2 * time.Minute
	withPrefetch := play(t, lossy)
	lossy.tweak = func(c *Config) { c.DisablePrefetch = true }
	noPrefetch := play(t, lossy)
	if noPrefetch.StallRatio <= withPrefetch.StallRatio+0.01 {
		t.Fatalf("disabling prefetch should cause stalls on a lossy link: %.3f vs %.3f",
			noPrefetch.StallRatio, withPrefetch.StallRatio)
	}
}

func TestSoftwareDecodeAblation(t *testing.T) {
	// Without the hardware decoder even a mid-range phone at full clock
	// cannot keep 1080p smooth — the paper's counterfactual.
	rc := nexus4(1512)
	rc.tweak = func(c *Config) { c.ForceSoftwareDecode = true }
	sw := play(t, rc)
	hw := play(t, nexus4(1512))
	if sw.StallRatio <= hw.StallRatio+0.05 {
		t.Fatalf("software decode should stall badly: %.3f vs %.3f", sw.StallRatio, hw.StallRatio)
	}
}

func TestMetricsAccounting(t *testing.T) {
	m := play(t, nexus4(1512))
	if m.StallRatio < 0 {
		t.Fatal("negative stall ratio")
	}
	if m.StartupLatency <= 0 {
		t.Fatal("startup latency not recorded")
	}
}

func TestBandwidthABRStepsDownOn3G(t *testing.T) {
	// On a 4 Mbps 3G cell the 4.5 Mbps FullHD ladder rung is unsustainable:
	// the bandwidth estimator must step the session down, and playback must
	// survive without pathological stalling.
	s := sim.New()
	ccfg := cpu.FromSpec(device.Nexus4(), cpu.Performance)
	c := cpu.New(s, ccfg)
	n := netsim.New(s, c, netsim.Profile3G())
	var m Metrics
	fired := false
	Stream(Config{Sim: s, CPU: c, Net: n, Spec: device.Nexus4()},
		StreamConfig{Duration: 90 * time.Second}, func(got Metrics) {
			m = got
			fired = true
			c.Stop()
		})
	s.RunUntil(time.Hour)
	c.Stop()
	s.Run()
	if !fired {
		t.Fatal("3G stream never finished")
	}
	if m.Rung.Name == "1080p" {
		t.Fatalf("ABR should abandon 1080p on a 4 Mbps cell, ended at %s", m.Rung.Name)
	}
	if m.StallRatio > 0.6 {
		t.Fatalf("adaptive session stalls too much: %.3f", m.StallRatio)
	}
}

func TestBandwidthABRHoldsOnLAN(t *testing.T) {
	// The paper's LAN has 10x headroom: the session must stay at FullHD.
	m := play(t, nexus4(1512))
	if m.Rung.Name != "1080p" {
		t.Fatalf("LAN session should hold 1080p, got %s", m.Rung.Name)
	}
}
