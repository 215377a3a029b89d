package dsp

import (
	"math"
	"testing"
	"time"

	"mobileqoe/internal/energy"
	"mobileqoe/internal/obs"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/trace"
	"mobileqoe/internal/units"
)

func TestServiceTimeScalesWithSteps(t *testing.T) {
	s := sim.New()
	d := New(s, Config{})
	one := d.ServiceTime(1000)
	ten := d.ServiceTime(10000)
	if diff := (ten - 10*one).Abs(); diff > 10*time.Nanosecond {
		t.Fatalf("service time not linear: %v vs %v", one, ten)
	}
	// 1e6 steps at 0.55 cycles/step on 800 MHz = 687.5 µs.
	want := 687500 * time.Nanosecond
	if got := d.ServiceTime(1_000_000); (got - want).Abs() > time.Microsecond {
		t.Fatalf("1M steps = %v, want %v", got, want)
	}
}

func TestCallCompletesWithRPCOverhead(t *testing.T) {
	s := sim.New()
	m := trace.NewMetrics()
	d := New(s, Config{Obs: obs.Ctx{Metrics: m}})
	var doneAt time.Duration
	d.Call(1_000_000, 2048, func() { doneAt = s.Now() })
	s.Run()
	// service 687.5µs + 100µs RPC + 1µs marshal.
	min := 687500*time.Nanosecond + 100*time.Microsecond
	max := min + 20*time.Microsecond
	if doneAt < min || doneAt > max {
		t.Fatalf("call latency = %v, want in [%v, %v]", doneAt, min, max)
	}
	if n := m.Counter("dsp.calls").Value(); n != 1 {
		t.Fatalf("dsp.calls = %v, want 1", n)
	}
}

func TestFIFOQueueing(t *testing.T) {
	s := sim.New()
	d := New(s, Config{})
	var first, second time.Duration
	d.Call(1_000_000, 0, func() { first = s.Now() })
	d.Call(1_000_000, 0, func() { second = s.Now() })
	s.Run()
	if second <= first {
		t.Fatalf("second call (%v) should finish after first (%v)", second, first)
	}
	if gap := second - first; (gap - 687500*time.Nanosecond).Abs() > 100*time.Microsecond {
		t.Fatalf("queueing gap = %v, want ~687µs service", gap)
	}
}

// TestLatencyPrice pins the priced FastRPC call: overhead, marshal and
// service, with no queueing (an idle DSP), whatever calls are in flight.
func TestLatencyPrice(t *testing.T) {
	s := sim.New()
	d := New(s, Config{})
	d.Call(10_000_000, 0, nil) // a busy DSP does not change the price
	// 100µs RPC + 2 KiB at 500ns/KiB + 1M steps at 0.55 cycles/step on 800 MHz.
	if got, want := d.Latency(1_000_000, 2048), 100*time.Microsecond+time.Microsecond+687500*time.Nanosecond; got != want {
		t.Fatalf("Latency = %v, want %v", got, want)
	}
	s.Run()
}

func TestEnergyModelFourXCheaperThanCore(t *testing.T) {
	// The headline §4.2 result: running the regex workload on the DSP draws
	// roughly a quarter of the power of an application core.
	s := sim.New()
	m := energy.NewMeter(s.Now)
	d := New(s, Config{Obs: obs.Ctx{Meter: m}})
	var during float64
	d.Call(100_000_000, 0, nil) // ~68.75 ms of service
	s.At(20*time.Millisecond, func() { during = m.TotalPower() })
	s.Run()
	if during != ActiveWatts {
		t.Fatalf("active power = %v, want %v", during, ActiveWatts)
	}
	corePower := energy.DynamicPower(energy.CoreCeff, units.MHz(1512), 1.25)
	ratio := corePower / during
	if ratio < 3.5 || ratio > 8 {
		t.Fatalf("core/DSP power ratio = %.1f, want ~4-6x", ratio)
	}
	// After the burst the meter returns to idle.
	if p := m.TotalPower(); p != idleWatts {
		t.Fatalf("post-burst power = %v, want idle", p)
	}
}

func TestBusyWindowExtension(t *testing.T) {
	// Back-to-back calls must keep the meter at active power in between.
	s := sim.New()
	m := energy.NewMeter(s.Now)
	d := New(s, Config{Obs: obs.Ctx{Meter: m}})
	d.Call(10_000_000, 0, nil) // ~6.9ms
	d.Call(10_000_000, 0, nil) // queued, +6.9ms
	var mid float64
	s.At(9*time.Millisecond, func() { mid = m.TotalPower() })
	s.Run()
	if mid != ActiveWatts {
		t.Fatalf("power dipped to %v between queued calls", mid)
	}
}

func TestCPUCyclesMapping(t *testing.T) {
	if CPUCycles(1000) != 8000 {
		t.Fatalf("CPUCycles(1000) = %v", CPUCycles(1000))
	}
}

func TestDefaults(t *testing.T) {
	s := sim.New()
	d := New(s, Config{})
	if Freq != units.MHz(800) || d.cfg.RPCOverhead != 100*time.Microsecond {
		t.Fatalf("defaults wrong: %v, %+v", Freq, d.cfg)
	}
	if ActiveWatts <= idleWatts {
		t.Fatal("active must exceed idle")
	}
}

// TestBusyTimeAccounting: the dsp.service_us histogram sums the DSP's
// service time over its calls.
func TestBusyTimeAccounting(t *testing.T) {
	s := sim.New()
	m := trace.NewMetrics()
	d := New(s, Config{Obs: obs.Ctx{Metrics: m}})
	d.Call(1_000_000, 0, nil)
	d.Call(2_000_000, 0, nil)
	s.Run()
	want := 3_000_000 * 0.55 / 800e6 * 1e6
	if got := m.Histogram("dsp.service_us").Sum(); math.Abs(got-want) > 10 {
		t.Fatalf("busy time = %vµs, want %vµs", got, want)
	}
}
