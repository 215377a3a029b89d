package core

import (
	"testing"
	"testing/quick"
	"time"

	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/telephony"
	"mobileqoe/internal/units"
	"mobileqoe/internal/video"
	"mobileqoe/internal/webpage"
	"mobileqoe/internal/wprof"
)

// Cross-cutting integration properties and failure-injection scenarios.

// Property: any generated page loads to completion on any catalog device at
// any Nexus4-table clock, with a well-formed trace.
func TestAnyPageLoadsAnywhereProperty(t *testing.T) {
	cats := webpage.Categories()
	devices := device.Catalog()
	f := func(seed uint64, catIdx, devIdx uint8) bool {
		cat := cats[int(catIdx)%len(cats)]
		spec := devices[int(devIdx)%len(devices)]
		page := webpage.Generate("prop.example", cat, seed%50)
		sys := NewSystem(spec, WithGovernor(cpu.Performance))
		res := sys.LoadPage(page)
		if res.PLT <= 0 {
			return false
		}
		// Trace sanity: deps resolved, times ordered.
		for _, a := range res.Activities {
			if a.End < a.Start {
				return false
			}
			for _, d := range a.Deps {
				if d < 0 || d >= len(res.Activities) || res.Activities[d].End > a.End {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: ePLT is monotone non-increasing in the effective CPU rate.
func TestEPLTMonotoneInRateProperty(t *testing.T) {
	sys := NewSystem(device.Nexus4(), WithGovernor(cpu.Performance))
	g := wprof.FromResult(sys.LoadPage(quickPage()))
	f := func(a, b uint16) bool {
		lo := 200e6 + float64(a)*1e6
		hi := 200e6 + float64(b)*1e6
		if lo > hi {
			lo, hi = hi, lo
		}
		slow := g.EPLT(wprof.EvalOptions{EffectiveRate: lo})
		fast := g.EPLT(wprof.EvalOptions{EffectiveRate: hi})
		return fast <= slow+time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPageLoadSurvivesHeavyLoss(t *testing.T) {
	sys := NewSystem(device.Nexus4(),
		WithGovernor(cpu.Performance),
		WithNetwork(netsim.Config{ChargeCPU: true, Loss: 0.15}))
	res := sys.LoadPage(quickPage())
	if res.PLT <= 0 {
		t.Fatal("load failed under 15% loss")
	}
	clean := NewSystem(device.Nexus4(), WithGovernor(cpu.Performance)).LoadPage(quickPage())
	if res.PLT <= clean.PLT {
		t.Fatalf("loss should hurt: %v vs %v", res.PLT, clean.PLT)
	}
}

func TestStreamSurvivesHeavyLoss(t *testing.T) {
	sys := NewSystem(device.Nexus4(),
		WithClock(units.MHz(1512)),
		WithNetwork(netsim.Config{ChargeCPU: true, Loss: 0.10}))
	// StreamVideo returns only once the playhead reaches the clip's end.
	m := sys.StreamVideo(video.StreamConfig{Duration: 30 * time.Second})
	if m.StallRatio < 0 || m.StallRatio > 5 {
		t.Fatalf("implausible stall ratio %v", m.StallRatio)
	}
}

func TestCallSurvivesLoss(t *testing.T) {
	sys := NewSystem(device.Nexus4(),
		WithGovernor(cpu.Performance),
		WithNetwork(netsim.Config{ChargeCPU: true, Loss: 0.20}))
	m := sys.PlaceCall(telephony.CallConfig{Duration: 10 * time.Second})
	if m.SetupDelay <= 0 {
		t.Fatal("setup never completed under loss")
	}
	clean := NewSystem(device.Nexus4(), WithGovernor(cpu.Performance)).
		PlaceCall(telephony.CallConfig{Duration: 10 * time.Second})
	if m.FrameRate > clean.FrameRate {
		t.Fatalf("20%% loss should not raise fps: %.1f vs %.1f", m.FrameRate, clean.FrameRate)
	}
}

func TestHotplugChurnDuringLoad(t *testing.T) {
	// Cores flap between 1 and 4 every 100 ms mid-load; the load must still
	// complete with a sane trace (scheduler migration correctness).
	sys := NewSystem(device.Nexus4(), WithGovernor(cpu.Performance))
	stop := false
	var flap func(n int)
	flap = func(n int) {
		if stop || n > 200 { // bounded so the drain loop terminates
			return
		}
		sys.CPU.SetOnlineCores(1 + n%4)
		sys.Sim.After(100*time.Millisecond, func() { flap(n + 1) })
	}
	sys.Sim.After(50*time.Millisecond, func() { flap(0) })
	result := sys.LoadPage(quickPage())
	stop = true
	if result.PLT <= 0 {
		t.Fatal("load did not complete under hotplug churn")
	}
	if sys.CPU.OnlineCores() < 1 {
		t.Fatal("invalid core count after churn")
	}
}

func TestExtremeMemorySqueeze(t *testing.T) {
	sys := NewSystem(device.Nexus4(), WithGovernor(cpu.Performance), WithRAM(128*units.MB))
	res := sys.LoadPage(quickPage())
	if res.PLT <= 0 {
		t.Fatal("load failed at 128 MB RAM")
	}
	roomy := NewSystem(device.Nexus4(), WithGovernor(cpu.Performance)).LoadPage(quickPage())
	if res.PLT <= roomy.PLT {
		t.Fatal("extreme squeeze should be slower")
	}
}

func TestTLSOptionEndToEnd(t *testing.T) {
	plain := NewSystem(device.Nexus4(), WithClock(units.MHz(384))).LoadPage(quickPage())
	tls := NewSystem(device.Nexus4(), WithClock(units.MHz(384)), WithTLS()).LoadPage(quickPage())
	if tls.PLT <= plain.PLT {
		t.Fatalf("TLS should cost PLT: %v vs %v", tls.PLT, plain.PLT)
	}
}

func TestZeroLengthWorkloads(t *testing.T) {
	// Minimal durations must not wedge the simulators.
	sys := NewSystem(device.Pixel2())
	m := sys.StreamVideo(video.StreamConfig{Duration: 2 * time.Second})
	if m.StartupLatency <= 0 {
		t.Fatal("tiny clip did not play")
	}
	sys2 := NewSystem(device.Pixel2())
	c := sys2.PlaceCall(telephony.CallConfig{Duration: time.Second})
	if c.SetupDelay <= 0 {
		t.Fatal("tiny call did not set up")
	}
}
