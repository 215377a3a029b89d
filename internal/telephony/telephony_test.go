package telephony

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
	tweak    func(*Config)
	call     CallConfig
}

func dial(t *testing.T, rc runCfg) Metrics {
	t.Helper()
	s := sim.New()
	ccfg := cpu.FromSpec(rc.spec, rc.governor)
	ccfg.UserspaceFreq = rc.usFreq
	c := cpu.New(s, ccfg)
	if rc.cores > 0 {
		c.SetOnlineCores(rc.cores)
	}
	n := netsim.New(s, c, netsim.Config{ChargeCPU: true})
	cfg := Config{Sim: s, CPU: c, Net: n, Spec: rc.spec}
	if rc.ram > 0 {
		cfg.Mem = mem.New(mem.Config{RAM: rc.ram})
	}
	if rc.tweak != nil {
		rc.tweak(&cfg)
	}
	if rc.call.Duration == 0 {
		rc.call.Duration = 30 * time.Second
	}
	var m Metrics
	fired := false
	Call(cfg, rc.call, func(got Metrics) { m = got; fired = true; c.Stop() })
	s.RunUntil(time.Hour)
	c.Stop()
	s.Run()
	if !fired {
		t.Fatal("call never finished")
	}
	return m
}

func nexus4(mhz float64) runCfg {
	return runCfg{spec: device.Nexus4(), governor: cpu.Userspace, usFreq: units.MHz(mhz)}
}

func TestSetupDelayReproducesFig5a(t *testing.T) {
	// Fig 5a: call setup ≈5 s at 1512 MHz rising ≈18 s to ≈23 s at 384 MHz.
	high := dial(t, nexus4(1512))
	low := dial(t, nexus4(384))
	if high.SetupDelay < 4*time.Second || high.SetupDelay > 8*time.Second {
		t.Fatalf("setup at 1512 MHz = %v, want ~5-6s", high.SetupDelay)
	}
	if low.SetupDelay < 18*time.Second || low.SetupDelay > 27*time.Second {
		t.Fatalf("setup at 384 MHz = %v, want ~23s", low.SetupDelay)
	}
	delta := low.SetupDelay - high.SetupDelay
	if delta < 14*time.Second || delta < 0 {
		t.Fatalf("setup increase = %v, want ~18s", delta)
	}
}

func TestFrameRateReproducesFig5a(t *testing.T) {
	// Fig 5a: ~30 fps at high clock, dropping to ~17 fps at 384 MHz.
	high := dial(t, nexus4(1512))
	low := dial(t, nexus4(384))
	if high.FrameRate < 28 || high.FrameRate > 31 {
		t.Fatalf("fps at 1512 MHz = %.1f, want ~30", high.FrameRate)
	}
	if low.FrameRate < 14 || low.FrameRate > 24 {
		t.Fatalf("fps at 384 MHz = %.1f, want ~17", low.FrameRate)
	}
}

func TestABRStepsDownAtLowClock(t *testing.T) {
	// §3.3: Skype requests lower resolutions under slow clocks.
	high := dial(t, nexus4(1512))
	low := dial(t, nexus4(384))
	if high.Resolution.Name != "720p" {
		t.Fatalf("high clock resolution = %s, want 720p", high.Resolution.Name)
	}
	if low.Resolution.Name == "720p" {
		t.Fatal("low clock should step the resolution down")
	}
}

func TestDeviceSweepFig2c(t *testing.T) {
	// Fig 2c: frame rate falls from 30 fps (high-end) to ~18 fps (low-end);
	// the interactive default governor is used across devices.
	fps := map[string]float64{}
	for _, spec := range device.Catalog() {
		m := dial(t, runCfg{spec: spec, governor: cpu.Interactive})
		fps[spec.Name] = m.FrameRate
	}
	if fps["Google Pixel2"] < 28 {
		t.Fatalf("Pixel2 fps = %.1f, want ~30", fps["Google Pixel2"])
	}
	if fps["Intex Amaze+"] > 24 || fps["Intex Amaze+"] < 13 {
		t.Fatalf("Intex fps = %.1f, want ~18", fps["Intex Amaze+"])
	}
	if fps["Intex Amaze+"] >= fps["Google Pixel2"] {
		t.Fatal("low-end should underperform high-end")
	}
}

func TestSingleCoreHurtsCall(t *testing.T) {
	four := dial(t, runCfg{spec: device.Nexus4(), governor: cpu.Interactive})
	one := dial(t, runCfg{spec: device.Nexus4(), governor: cpu.Interactive, cores: 1})
	if one.FrameRate >= four.FrameRate {
		t.Fatalf("1-core fps (%.1f) should trail 4-core (%.1f)", one.FrameRate, four.FrameRate)
	}
	if one.SetupDelay <= four.SetupDelay {
		t.Fatalf("1-core setup (%v) should exceed 4-core (%v)", one.SetupDelay, four.SetupDelay)
	}
}

func TestPowersaveGovernorWorst(t *testing.T) {
	pf := dial(t, runCfg{spec: device.Nexus4(), governor: cpu.Performance})
	pw := dial(t, runCfg{spec: device.Nexus4(), governor: cpu.Powersave})
	if pw.SetupDelay <= pf.SetupDelay {
		t.Fatal("powersave should slow setup")
	}
	if pw.FrameRate >= pf.FrameRate {
		t.Fatal("powersave should reduce frame rate")
	}
}

func TestMemorySqueezeMildFig5b(t *testing.T) {
	big := dial(t, func() runCfg { rc := nexus4(1512); rc.ram = 2 * units.GB; return rc }())
	small := dial(t, func() runCfg { rc := nexus4(1512); rc.ram = 512 * units.MB; return rc }())
	if small.SetupDelay < big.SetupDelay {
		t.Fatal("memory squeeze should not speed setup")
	}
	// The call app's working set is modest; the effect is mild, unlike Web.
	ratio := float64(small.SetupDelay) / float64(big.SetupDelay)
	if ratio > 1.6 {
		t.Fatalf("memory effect on calls too strong: %.2f", ratio)
	}
}

func TestSoftwareCodecAblation(t *testing.T) {
	rc := nexus4(1512)
	rc.tweak = func(c *Config) { c.ForceSoftwareCodec = true }
	sw := dial(t, rc)
	hw := dial(t, nexus4(1512))
	if sw.FrameRate >= hw.FrameRate-2 {
		t.Fatalf("software codec should crater fps: %.1f vs %.1f", sw.FrameRate, hw.FrameRate)
	}
}

func TestMetricsAccounting(t *testing.T) {
	m := dial(t, nexus4(1512))
	if m.FrameRate <= 0 {
		t.Fatal("no frames displayed")
	}
	if m.SetupDelay <= 0 {
		t.Fatal("setup delay missing")
	}
	if m.Resolution.Name == "" {
		t.Fatal("no ABR rung")
	}
}
