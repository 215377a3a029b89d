package core

import (
	"testing"
	"time"

	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/telephony"
	"mobileqoe/internal/trace"
	"mobileqoe/internal/units"
	"mobileqoe/internal/video"
	"mobileqoe/internal/webpage"
	"mobileqoe/internal/wprof"
)

func quickPage() *webpage.Page {
	return webpage.Generate("core-test.example", webpage.Health, 5)
}

func TestLoadPageEndToEnd(t *testing.T) {
	sys := NewSystem(device.Nexus4(), WithGovernor(cpu.Performance))
	res := sys.LoadPage(quickPage())
	if res.PLT <= 0 {
		t.Fatal("no PLT")
	}
	g := wprof.FromResult(res)
	if len(g.Nodes) != len(res.Activities) {
		t.Fatal("graph size mismatch")
	}
	st := g.CriticalPath()
	if st.Total <= 0 {
		t.Fatal("no critical path")
	}
}

func TestWithClockPinsUserspace(t *testing.T) {
	tr := trace.New()
	sys := NewObservedSystem(tr, nil, device.Nexus4(), WithClock(units.MHz(384)))
	samples := 0
	for _, e := range tr.Events() {
		if e.Kind == trace.KindCounter && e.Name == "freq.cluster0" {
			samples++
			if e.Args[0].Val != 384 {
				t.Fatalf("clock = %vMHz, want 384MHz", e.Args[0].Val)
			}
		}
	}
	if samples == 0 {
		t.Fatal("no freq.cluster0 sample in the trace")
	}
	fast := NewSystem(device.Nexus4(), WithClock(units.MHz(1512)))
	slow := sys.LoadPage(quickPage())
	quick := fast.LoadPage(quickPage())
	if slow.PLT <= quick.PLT {
		t.Fatal("pinned slow clock should slow the load")
	}
}

func TestWithCoresAndRAM(t *testing.T) {
	sys := NewSystem(device.Nexus4(), WithCores(1), WithRAM(512*units.MB))
	if sys.CPU.OnlineCores() != 1 {
		t.Fatalf("cores = %d", sys.CPU.OnlineCores())
	}
	if sys.Mem.Available() >= 512*units.MB {
		t.Fatal("RAM override not applied")
	}
	res := sys.LoadPage(quickPage())
	if res.PLT <= 0 {
		t.Fatal("load failed")
	}
}

func TestStreamVideoEndToEnd(t *testing.T) {
	sys := NewSystem(device.Pixel2())
	m := sys.StreamVideo(video.StreamConfig{Duration: 20 * time.Second})
	if m.StartupLatency <= 0 {
		t.Fatalf("bad metrics: %+v", m)
	}
	if m.StallRatio > 0.02 {
		t.Fatalf("Pixel2 should not stall: %.3f", m.StallRatio)
	}
}

func TestPlaceCallEndToEnd(t *testing.T) {
	sys := NewSystem(device.Nexus4(), WithGovernor(cpu.Performance))
	m := sys.PlaceCall(telephony.CallConfig{Duration: 10 * time.Second})
	if m.SetupDelay <= 0 || m.FrameRate <= 0 {
		t.Fatalf("bad metrics: %+v", m)
	}
}

func TestIperfEndToEnd(t *testing.T) {
	sys := NewSystem(device.Nexus4(), WithClock(units.MHz(1512)))
	res, err := sys.Run(IperfWorkload{Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Iperf; r.Throughput.Mbpsf() < 40 {
		t.Fatalf("throughput = %v, want ~46 Mbps", r.Throughput)
	}
}

// TestPixel2GetsDSPByDefault checks that a device with an exposed DSP draws
// the DSP's idle power and one without draws none.
func TestPixel2GetsDSPByDefault(t *testing.T) {
	for _, spec := range []device.Spec{device.Pixel2(), device.Nexus4()} {
		sys := NewSystem(spec)
		sys.Sim.RunUntil(time.Second)
		if got, want := sys.Meter.Energy("dsp") > 0, spec.Has(device.DSP); got != want {
			t.Errorf("%s: DSP draws power %v, want %v", spec.Name, got, want)
		}
	}
}

func TestEnergyMeterRuns(t *testing.T) {
	sys := NewSystem(device.Nexus4(), WithGovernor(cpu.Performance))
	sys.LoadPage(quickPage())
	if sys.Meter.Energy("cpu") <= 0 {
		t.Fatal("no CPU energy recorded")
	}
}

func TestSequentialWorkloadsShareSystem(t *testing.T) {
	sys := NewSystem(device.Nexus4(), WithGovernor(cpu.Performance))
	first := sys.LoadPage(quickPage())
	second := sys.LoadPage(quickPage())
	if second.StartedAt <= first.StartedAt {
		t.Fatal("virtual time should advance between runs")
	}
}

func TestAblationOptionsWire(t *testing.T) {
	sys := NewSystem(device.Nexus4(), WithClock(units.MHz(1512)), WithoutHardwareDecoder())
	m := sys.StreamVideo(video.StreamConfig{Duration: 20 * time.Second})
	if m.StallRatio <= 0.02 {
		t.Fatalf("software decode should stall, got %.3f", m.StallRatio)
	}

	noCharge := NewSystem(device.Nexus4(), WithClock(units.MHz(384)), WithoutPacketCPUCharge())
	res, err := noCharge.Run(IperfWorkload{Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Iperf; r.Throughput.Mbpsf() < 40 {
		t.Fatalf("ablated network should reach the link ceiling, got %v", r.Throughput)
	}
}
