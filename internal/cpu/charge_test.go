package cpu

import (
	"testing"
	"time"

	"mobileqoe/internal/device"
	"mobileqoe/internal/energy"
	"mobileqoe/internal/sim"
)

// Softirq-like charge shape: netsim's per-segment receive cost for a full
// 1448-byte segment, arriving after the previous charge finished.
const (
	chargeCycles = 36000 + 65*1448
	chargeGap    = 500 * time.Microsecond
)

// idleCharger drives a chain of softirq-like charges on a Nexus 4 with a
// meter: each charge arrives on an idle thread, runs alone on its core,
// completes, and the next arrives chargeGap later. Every charge therefore
// takes the idle→busy→idle path: a placement, two re-plans and two power
// changes. A charge is exactly two kernel steps, its arrival and its
// completion.
type idleCharger struct {
	s      *sim.Sim
	th     *Thread
	left   int
	arrive func()
	done   func()
}

func newIdleCharger() *idleCharger {
	s := sim.New()
	cfg := FromSpec(device.Nexus4(), Performance)
	cfg.Obs.Meter = energy.NewMeter(s.Now)
	c := New(s, cfg)
	ic := &idleCharger{s: s, th: c.NewThread("softirq", false)}
	ic.arrive = func() { ic.th.Exec("rx", chargeCycles, ic.done) }
	ic.done = func() {
		if ic.left--; ic.left > 0 {
			s.PostAfter(chargeGap, ic.arrive)
		}
	}
	return ic
}

// run drives n charges to completion.
func (ic *idleCharger) run(n int) {
	ic.left = n
	ic.s.PostAfter(chargeGap, ic.arrive)
	ic.s.Run()
}

// BenchmarkIdleCharge: the cost of one softirq charge that finds its
// thread idle, the path most per-packet charges take.
func BenchmarkIdleCharge(b *testing.B) {
	ic := newIdleCharger()
	ic.run(100) // warm the task, event and thread-queue free lists
	steps := ic.s.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	ic.run(b.N)
	b.StopTimer()
	b.ReportMetric(float64(ic.s.Steps()-steps)/float64(b.N), "events/op")
}

// TestIdleChargeAllocations pins the idle-charge path: no allocation per
// warm charge, and exactly two kernel steps per charge.
func TestIdleChargeAllocations(t *testing.T) {
	ic := newIdleCharger()
	ic.run(100)
	const perRun = 50
	steps := ic.s.Steps()
	allocs := testing.AllocsPerRun(20, func() { ic.run(perRun) })
	if allocs != 0 {
		t.Errorf("%v allocations per %d warm charges, want 0", allocs, perRun)
	}
	// AllocsPerRun makes one warm-up call before its 20 measured runs.
	if got, want := ic.s.Steps()-steps, uint64(21*perRun*2); got != want {
		t.Errorf("%d kernel steps for %d charges, want %d (2 per charge)", got, 21*perRun, want)
	}
}
