// Package energy models power draw and accumulated energy for the device
// components the paper measures: CPU cores at a frequency-dependent voltage,
// the DSP coprocessor, and fixed-function accelerators. A Meter integrates
// piecewise-constant power over virtual time, which is exactly how the
// paper's Monsoon-style traces are summarized (median power, total joules).
package energy

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"mobileqoe/internal/trace"
	"mobileqoe/internal/units"
)

// Meter integrates per-component power over virtual time. Components are
// identified by name ("cpu", "dsp", "decoder", ...). The zero value is not
// usable; construct with NewMeter.
type Meter struct {
	now      func() time.Duration
	comps    map[string]*Component
	names    []string // component names, sorted: the order totals sum in
	tr       *trace.Tracer
	tracePid int
}

// Component is one metered component. A caller that changes a component's
// power often resolves it once with Meter.Component and calls its SetPower,
// which skips the by-name lookup.
type Component struct {
	m       *Meter
	name    string
	counter string // trace counter name, "power.<name>"; built on first trace
	watts   float64
	since   time.Duration
	joules  float64
}

// NewMeter returns a meter that reads virtual time through now (typically
// Sim.Now).
func NewMeter(now func() time.Duration) *Meter {
	if now == nil {
		panic("energy: nil clock")
	}
	return &Meter{now: now, comps: map[string]*Component{}}
}

// SetTrace makes the meter emit a "power.<component>" counter sample under
// category "energy" whenever a component's draw changes — the simulated
// analogue of a Monsoon power timeline. Pass nil to detach.
func (m *Meter) SetTrace(tr *trace.Tracer, pid int) {
	m.tr = tr
	m.tracePid = pid
}

// Component returns the named component, registering it at zero power from
// now on first use.
func (m *Meter) Component(name string) *Component {
	c, ok := m.comps[name]
	if !ok {
		c = &Component{m: m, name: name, since: m.now()}
		m.comps[name] = c
		m.names = slices.Insert(m.names, sort.SearchStrings(m.names, name), name)
	}
	return c
}

// SetPower sets the instantaneous power draw of a component, accruing energy
// for the interval since the last change. Negative power panics.
func (m *Meter) SetPower(name string, watts float64) {
	m.Component(name).SetPower(watts)
}

// SetPower sets the component's instantaneous power draw, accruing energy
// for the interval since the last change. Negative power panics. A change
// at the instant of the last one accrues nothing: adding watts×0 to the
// non-negative joules would not change a bit of them.
func (c *Component) SetPower(watts float64) {
	if watts < 0 {
		panic(fmt.Sprintf("energy: negative power %f for %s", watts, c.name))
	}
	m := c.m
	t := m.now()
	if m.tr != nil && watts != c.watts {
		if c.counter == "" {
			c.counter = "power." + c.name
		}
		m.tr.Counter("energy", c.counter, m.tracePid, t, watts)
	}
	if t != c.since {
		c.joules += c.watts * (t - c.since).Seconds()
		c.since = t
	}
	c.watts = watts
}

// TotalPower returns the current total power across all components,
// summed in name order so the float result does not depend on map order.
func (m *Meter) TotalPower() float64 {
	t := 0.0
	for _, name := range m.names {
		t += m.comps[name].watts
	}
	return t
}

// Energy returns the energy in joules accrued by a component up to now.
func (m *Meter) Energy(name string) float64 {
	c, ok := m.comps[name]
	if !ok {
		return 0
	}
	return c.joules + c.watts*(m.now()-c.since).Seconds()
}

// VoltageCurve maps core clock frequency to supply voltage. Mobile SoCs run
// roughly linear V-f curves between their minimum and maximum operating
// points; that is what makes the powersave governor's energy/performance
// trade-off non-trivial (P_dyn ∝ f·V²).
type VoltageCurve struct {
	FMin, FMax units.Freq
	VMin, VMax float64 // volts at FMin and FMax
}

// DefaultVoltageCurve is a typical mobile core curve (0.70 V at the floor,
// 1.25 V at the ceiling).
func DefaultVoltageCurve(fmin, fmax units.Freq) VoltageCurve {
	return VoltageCurve{FMin: fmin, FMax: fmax, VMin: 0.70, VMax: 1.25}
}

// VoltsAt returns the supply voltage at frequency f, clamped to the curve's
// endpoints.
func (v VoltageCurve) VoltsAt(f units.Freq) float64 {
	if v.FMax <= v.FMin {
		return v.VMax
	}
	if f <= v.FMin {
		return v.VMin
	}
	if f >= v.FMax {
		return v.VMax
	}
	frac := (f.Hz() - v.FMin.Hz()) / (v.FMax.Hz() - v.FMin.Hz())
	return v.VMin + frac*(v.VMax-v.VMin)
}

// DynamicPower returns the switching power C_eff·f·V² in watts for an
// effective capacitance in farads.
func DynamicPower(ceff float64, f units.Freq, volts float64) float64 {
	return ceff * f.Hz() * volts * volts
}

// CoreCeff is the effective switching capacitance used for application cores.
// It is calibrated so that a busy core at 1512 MHz / 1.25 V draws ≈1.2 W,
// matching the CPU curve in the paper's Fig. 7b.
const CoreCeff = 5.1e-10

// CoreIdleWatts is the leakage/idle floor per online core.
const CoreIdleWatts = 0.018
