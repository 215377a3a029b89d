package obs_test

import (
	"testing"

	"mobileqoe/internal/obs"
)

// TestZeroCtxIsNilSafe drives every accessor on the zero Ctx — the
// fully-dark configuration. Each must answer without a tracer, registry,
// injector, or meter behind it: that is the contract that lets subsystems
// thread one Ctx unconditionally instead of nil-checking five fields.
func TestZeroCtxIsNilSafe(t *testing.T) {
	var o obs.Ctx
	if o.Trace != nil {
		t.Error("zero Ctx has a tracer")
	}
	if id := o.Lane("net.rx"); id != 0 {
		t.Errorf("zero Ctx allocated lane %d", id)
	}
	o.Counter("cpu.tasks").Add(1)
	if v := o.Counter("cpu.tasks").Value(); v != 0 {
		t.Errorf("dark counter accumulated %v", v)
	}
	o.Histogram("cpu.task_cycles").Observe(17000)
	if n := o.Histogram("cpu.task_cycles").Count(); n != 0 {
		t.Errorf("dark histogram recorded %d observations", n)
	}
	if o.Faults.SegmentLost() || o.Faults.ExtraRTT() != 0 {
		t.Error("nil injector reported an active fault")
	}
	o.BindMeter() // nil meter: must be a no-op, not a panic
}

// TestZeroCtxZeroAllocs is the allocs/op guard for the observability-off
// path: with an empty Ctx the hot-path helpers — the calls subsystems make
// per task, per packet, per frame — must not allocate, so running dark
// costs what the pre-obs.Ctx nil fields used to cost.
func TestZeroCtxZeroAllocs(t *testing.T) {
	var o obs.Ctx
	tasks := o.Counter("cpu.tasks")
	cycles := o.Histogram("cpu.task_cycles")
	avg := testing.AllocsPerRun(1000, func() {
		if o.Trace != nil {
			panic("unreachable: zero Ctx never traces")
		}
		tasks.Add(1)
		cycles.Observe(93606)
		if o.Faults.SegmentLost() || o.Faults.ConnResets() {
			panic("unreachable: nil injector never faults")
		}
		o.BindMeter()
	})
	if avg != 0 {
		t.Fatalf("observability-off hot path allocates %.1f allocs/op, want 0", avg)
	}
}
