package energy

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"mobileqoe/internal/trace"
	"mobileqoe/internal/units"
)

type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func TestMeterIntegration(t *testing.T) {
	c := &fakeClock{}
	m := NewMeter(c.now)
	m.SetPower("cpu", 2)
	c.t = 3 * time.Second
	if e := m.Energy("cpu"); math.Abs(e-6) > 1e-9 {
		t.Fatalf("energy = %v, want 6 J", e)
	}
	m.SetPower("cpu", 0.5)
	c.t = 5 * time.Second
	if e := m.Energy("cpu"); math.Abs(e-7) > 1e-9 {
		t.Fatalf("energy = %v, want 7 J", e)
	}
}

func TestMeterMultipleComponents(t *testing.T) {
	c := &fakeClock{}
	m := NewMeter(c.now)
	m.SetPower("cpu", 1)
	m.SetPower("dsp", 0.25)
	c.t = 4 * time.Second
	if e := m.Energy("cpu"); math.Abs(e-4) > 1e-9 {
		t.Fatalf("cpu = %v, want 4 J", e)
	}
	if e := m.Energy("dsp"); math.Abs(e-1) > 1e-9 {
		t.Fatalf("dsp = %v, want 1 J", e)
	}
	if p := m.TotalPower(); math.Abs(p-1.25) > 1e-9 {
		t.Fatalf("power = %v, want 1.25 W", p)
	}
}

// TestComponentHandleMatchesByName drives one meter through a resolved
// Component handle and another through SetPower by name; every reading must
// be bit-identical, and the handle resolves to the same component the name
// does.
func TestComponentHandleMatchesByName(t *testing.T) {
	c := &fakeClock{}
	byName, byHandle := NewMeter(c.now), NewMeter(c.now)
	h := byHandle.Component("cpu")
	if byHandle.Component("cpu") != h {
		t.Fatal("Component returned a second handle for the same name")
	}
	for i, w := range []float64{0.018, 1.218, 0.036, 0.7 / 3, 0.018, 0} {
		c.t = time.Duration(i*i+1) * 37 * time.Millisecond
		byName.SetPower("cpu", w)
		h.SetPower(w)
		byName.SetPower("dsp", w/2)
		byHandle.SetPower("dsp", w/2)
		for _, name := range []string{"cpu", "dsp"} {
			if a, b := byName.Energy(name), byHandle.Energy(name); a != b {
				t.Fatalf("step %d: %s energy %v by name, %v by handle", i, name, a, b)
			}
		}
		if a, b := byName.TotalPower(), byHandle.TotalPower(); a != b {
			t.Fatalf("step %d: power %v by name, %v by handle", i, a, b)
		}
	}
}

// TestSameInstantChanges: a sequence of power changes, several at one
// instant, leaves joules bit-identical to integrating every interval, empty
// ones included, and traces one counter sample per change of draw, same
// instant or not.
func TestSameInstantChanges(t *testing.T) {
	c := &fakeClock{}
	m := NewMeter(c.now)
	tr := trace.New()
	m.SetTrace(tr, 7)
	h := m.Component("cpu")
	type sample struct {
		at    time.Duration
		watts float64
	}
	steps := []sample{
		{0, 0.072}, {0, 1.218}, {0, 1.218}, {3 * time.Millisecond, 0.7 / 3},
		{3 * time.Millisecond, 1.9}, {3 * time.Millisecond, 0.7 / 3},
		{3*time.Millisecond + 17*time.Microsecond, 0.054}, {40 * time.Millisecond, 2.2},
		{40 * time.Millisecond, 2.2}, {40 * time.Millisecond, 0}, {41 * time.Millisecond, 0.018},
	}
	var joules, watts float64
	var since time.Duration
	var want []sample
	for _, st := range steps {
		c.t = st.at
		h.SetPower(st.watts)
		joules += watts * (st.at - since).Seconds()
		if st.watts != watts {
			want = append(want, st)
		}
		watts, since = st.watts, st.at
	}
	c.t = 50 * time.Millisecond
	joules += watts * (c.t - since).Seconds()
	if got := m.Energy("cpu"); math.Float64bits(got) != math.Float64bits(joules) {
		t.Errorf("energy %v (bits %#x), every interval integrated gives %v (bits %#x)",
			got, math.Float64bits(got), joules, math.Float64bits(joules))
	}
	var got []sample
	for _, e := range tr.Events() {
		if e.Kind != trace.KindCounter || e.Name != "power.cpu" || e.Pid != 7 {
			t.Fatalf("unexpected trace event %+v", e)
		}
		got = append(got, sample{e.Ts, e.Args[0].Val})
	}
	if !slices.Equal(got, want) {
		t.Errorf("counter samples %v, want %v", got, want)
	}
}

// TestMeterTotalsSumInNameOrder uses three draws whose float sum depends on
// the order of addition: 1e16 absorbs a lone 1 (its ulp is 2), but not the
// 2 the two 1s make first. Name order gives 1 + 1 + 1e16 on every call,
// however the component map happens to iterate.
func TestMeterTotalsSumInNameOrder(t *testing.T) {
	for i := 0; i < 50; i++ {
		c := &fakeClock{}
		m := NewMeter(c.now)
		m.SetPower("z", 1e16)
		m.SetPower("a", 1)
		m.SetPower("m", 1)
		c.t = time.Second
		if p := m.TotalPower(); p != 1e16+2 {
			t.Fatalf("power = %v, want %v", p, 1e16+2)
		}
	}
}

func TestMeterUnknownComponent(t *testing.T) {
	m := NewMeter((&fakeClock{}).now)
	if m.Energy("nope") != 0 || m.TotalPower() != 0 {
		t.Fatal("unknown component should read zero")
	}
}

func TestNegativePowerPanics(t *testing.T) {
	m := NewMeter((&fakeClock{}).now)
	defer func() {
		if recover() == nil {
			t.Error("negative power did not panic")
		}
	}()
	m.SetPower("cpu", -1)
}

func TestNilClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil clock did not panic")
		}
	}()
	NewMeter(nil)
}

func TestVoltageCurve(t *testing.T) {
	v := DefaultVoltageCurve(units.MHz(384), units.MHz(1512))
	if got := v.VoltsAt(units.MHz(384)); got != 0.70 {
		t.Fatalf("VMin = %v", got)
	}
	if got := v.VoltsAt(units.MHz(1512)); got != 1.25 {
		t.Fatalf("VMax = %v", got)
	}
	mid := v.VoltsAt(units.MHz(948)) // midpoint
	if math.Abs(mid-0.975) > 1e-9 {
		t.Fatalf("midpoint volts = %v, want 0.975", mid)
	}
	// Clamping.
	if v.VoltsAt(units.MHz(100)) != 0.70 || v.VoltsAt(units.GHz(3)) != 1.25 {
		t.Fatal("clamping failed")
	}
	// Degenerate curve.
	d := VoltageCurve{FMin: units.MHz(500), FMax: units.MHz(500), VMin: 0.7, VMax: 1.0}
	if d.VoltsAt(units.MHz(500)) != 1.0 {
		t.Fatal("degenerate curve should return VMax")
	}
}

func TestDynamicPowerCalibration(t *testing.T) {
	// A busy core at 1512 MHz / 1.25 V should draw on the order of 1.2 W,
	// matching the CPU power the paper reports during JS execution.
	p := DynamicPower(CoreCeff, units.MHz(1512), 1.25)
	if p < 1.0 || p > 1.5 {
		t.Fatalf("calibrated core power = %v W, want ~1.2 W", p)
	}
	// Power at the frequency floor should be dramatically lower.
	low := DynamicPower(CoreCeff, units.MHz(384), 0.70)
	if low > p/5 {
		t.Fatalf("low-clock power %v W not < 1/5 of high-clock %v W", low, p)
	}
}

// Property: energy is non-negative and non-decreasing in time for
// non-negative power schedules.
func TestEnergyMonotoneProperty(t *testing.T) {
	f := func(powers []uint8, gaps []uint8) bool {
		c := &fakeClock{}
		m := NewMeter(c.now)
		last := 0.0
		n := len(powers)
		if len(gaps) < n {
			n = len(gaps)
		}
		for i := 0; i < n; i++ {
			m.SetPower("x", float64(powers[i])/10)
			c.t += time.Duration(gaps[i]) * time.Millisecond
			e := m.Energy("x")
			if e < last-1e-12 {
				return false
			}
			last = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
