// Package obs bundles the cross-cutting observability and fault plumbing a
// simulated subsystem needs into one value, obs.Ctx: the tracer (plus the
// trace process id events are attributed to), the metrics registry, the
// fault injector, and the energy meter. Before this package existed every
// subsystem config re-declared the same four or five fields and core.build
// copied them one by one; a Ctx is assigned once and threaded whole.
//
// The zero Ctx is the fully-dark configuration: no tracer, no metrics, no
// faults, no meter. Every consumer keeps its existing nil checks
// (`ctx.Trace != nil`, nil-safe *trace.Metrics handles, nil-safe
// *fault.Injector queries), so an empty Ctx costs exactly what the separate
// nil fields used to cost — one nil check on the hot paths and zero
// allocations.
//
// Layering: obs sits above trace, energy, and fault. The injector's own
// observability (fault:<kind> instants, recovery spans) is therefore passed
// to fault.NewInjector as explicit tracer/pid/registry arguments rather than
// as a Ctx — fault cannot import obs without a cycle. Likewise energy.Meter
// keeps its SetTrace method.
package obs

import (
	"mobileqoe/internal/energy"
	"mobileqoe/internal/fault"
	"mobileqoe/internal/trace"
)

// Ctx is one system's observability context. Fields may be nil (or zero)
// independently; consumers treat each as optional.
type Ctx struct {
	// Trace receives spans, instants, and counter samples at virtual
	// timestamps. Nil disables tracing.
	Trace *trace.Tracer
	// Pid is the trace process id the system's events are attributed to;
	// 0 (with a nil Trace) when tracing is off.
	Pid int
	// Metrics accumulates counters and histograms over the run. A nil
	// registry hands out nil-safe no-op handles.
	Metrics *trace.Metrics
	// Faults is the fault-injection plane. A nil injector answers every
	// query with "no fault" and schedules nothing.
	Faults *fault.Injector
	// Meter integrates per-component power over virtual time. Nil disables
	// energy accounting.
	Meter *energy.Meter
}

// Lane allocates a trace thread lane under the context's process and
// returns its id, or 0 when tracing is off. Subsystems call it once at
// construction for each execution lane they emit spans onto.
func (o Ctx) Lane(name string) int {
	if o.Trace == nil {
		return 0
	}
	return o.Trace.Thread(o.Pid, name)
}

// Counter resolves a metrics counter handle; nil-safe when metrics are off.
func (o Ctx) Counter(name string) *trace.Counter { return o.Metrics.Counter(name) }

// Histogram resolves a metrics histogram handle; nil-safe when metrics are
// off.
func (o Ctx) Histogram(name string) *trace.Histogram { return o.Metrics.Histogram(name) }

// WithFaults returns a copy of o with the fault injector attached.
func (o Ctx) WithFaults(inj *fault.Injector) Ctx {
	o.Faults = inj
	return o
}

// WithMeter returns a copy of o with the energy meter attached.
func (o Ctx) WithMeter(m *energy.Meter) Ctx {
	o.Meter = m
	return o
}

// BindMeter points the meter's power-timeline emission at the context's
// tracer (a no-op on a nil meter or a dark context).
func (o Ctx) BindMeter() {
	if o.Meter != nil {
		o.Meter.SetTrace(o.Trace, o.Pid)
	}
}
