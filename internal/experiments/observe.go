package experiments

import (
	"mobileqoe/internal/core"
	"mobileqoe/internal/device"
	"mobileqoe/internal/fault"
	"mobileqoe/internal/obs"
)

// NewSystem is how every registry runner builds a device: core.NewSystem
// with the run's observability (Config.Trace, the trial's metrics registry)
// attached. Runners — including out-of-package ones registered via Register,
// like parsed scenarios — must construct systems through this helper: a
// direct core.NewSystem call would silently drop the trial out of traces and
// the metrics registry.
func (c Config) NewSystem(spec device.Spec, opts ...core.Option) *core.System {
	if c.Faults != nil {
		// Injector seeds are (trial seed, system ordinal)-stable: the n-th
		// system of a trial always draws the same fault randomness, no matter
		// which worker runs the trial or what ran before it.
		n := *c.faultSeq
		*c.faultSeq++
		opts = append(opts, core.WithFaultPlan(c.Faults, faultSeed(c.Seed, n)))
	}
	if c.Trace == nil && c.reg == nil {
		return core.NewSystem(spec, opts...)
	}
	return core.NewObservedSystem(c.Trace, c.reg, spec, opts...)
}

// Obs is the trial's observability for a runner that drives one subsystem
// directly instead of building a device through NewSystem (regexdsp's DSP
// model): Config.Trace with a fresh trace process named process, and the
// trial's metrics registry.
func (c Config) Obs(process string) obs.Ctx {
	return obs.Ctx{Trace: c.Trace, Pid: c.Trace.Process(process), Metrics: c.reg}
}

// WithFaultPlan returns a copy of c with the fault plan attached and the
// per-system injector-seed sequence initialized. Runners built outside
// RunTrial (which performs this setup itself for Config.Faults) use it to
// arm fault injection before calling NewSystem.
func (c Config) WithFaultPlan(p *fault.Plan) Config {
	c.Faults = p
	if p != nil && c.faultSeq == nil {
		c.faultSeq = new(uint64)
	}
	return c
}
