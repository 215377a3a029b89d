// Package dsp models the Qualcomm Hexagon-style aDSP coprocessor and the
// FastRPC path the paper's §4.2 prototype uses to offload regular-expression
// evaluation from the CPU.
//
// The model has three parts:
//
//   - a service model: the DSP is a single-context engine at a fixed clock
//     that serves offloaded calls FIFO, each costing RPC overhead (marshal,
//     context switch, interrupt) plus vectorized NFA execution time derived
//     from real rex step counts;
//   - an energy model: the DSP draws a small active power versus the
//     application core's ≈1.2 W, which is where the paper's 4× energy win
//     comes from; and
//   - a cost mapping for the CPU baseline: backtracking-engine steps to
//     application-core cycles, so the same workload can be priced on either
//     side.
package dsp

import (
	"time"

	"mobileqoe/internal/obs"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/trace"
	"mobileqoe/internal/units"
)

// Step-to-cycle calibration.
const (
	// CPUCyclesPerStep prices one backtracking-engine step on an application
	// core (interpreter dispatch, pointer chasing).
	CPUCyclesPerStep = 8.0
	// DSPCyclesPerStep prices one Pike-VM step on the DSP. HVX-style vector
	// scanning retires several NFA threads per cycle, which is how a
	// sub-GHz DSP beats a 2.4 GHz core on this workload.
	DSPCyclesPerStep = 0.55
)

// Coprocessor constants.
const (
	// Freq is the DSP clock.
	Freq units.Freq = 800e6
	// DefaultRPCOverhead is the fixed FastRPC round-trip cost a zero
	// Config.RPCOverhead takes.
	DefaultRPCOverhead = 100 * time.Microsecond
	// MarshalPerKB is the added RPC latency per KiB of input shipped across
	// the SMMU boundary (ION shared buffers make this cheap).
	MarshalPerKB = 500 * time.Nanosecond
	// ActiveWatts is the DSP's power while serving, idleWatts its leakage.
	ActiveWatts = 0.22
	idleWatts   = 0.005
	// fallbackFreq is the application-core clock used to price the CPU
	// fallback.
	fallbackFreq units.Freq = 2000e6
)

// Config describes the coprocessor.
type Config struct {
	// RPCOverhead is the fixed FastRPC round-trip cost; zero means
	// DefaultRPCOverhead.
	RPCOverhead time.Duration

	// Obs bundles the observability/fault plane. Obs.Meter, when non-nil,
	// integrates component "dsp" power. Obs.Faults, when non-nil, can fail
	// FastRPC calls (kind dsp-fail); the call then degrades gracefully to
	// CPU execution of the backtracking engine at fallbackFreq, paying the
	// penalty instead of erroring out. Obs.Trace, when non-nil, receives one
	// FastRPC span per call on a "dsp:fastrpc" lane under category "dsp",
	// attributed to Obs.Pid. Obs.Metrics, when non-nil, accumulates
	// dsp.calls and dsp.service_us (and, under fault injection,
	// dsp.fallbacks and dsp.fallback_us).
	Obs obs.Ctx
}

// DSP is a simulated coprocessor.
type DSP struct {
	s         *sim.Sim
	cfg       Config
	busyUntil time.Duration
	tid       int // trace lane, 0 when tracing is off

	mCalls      *trace.Counter
	mServiceUs  *trace.Histogram
	mFallbacks  *trace.Counter
	mFallbackUs *trace.Histogram
}

// New constructs a DSP on the simulator.
func New(s *sim.Sim, cfg Config) *DSP {
	if cfg.RPCOverhead == 0 {
		cfg.RPCOverhead = DefaultRPCOverhead
	}
	d := &DSP{s: s, cfg: cfg}
	if cfg.Obs.Trace != nil {
		d.tid = cfg.Obs.Trace.Thread(cfg.Obs.Pid, "dsp:fastrpc")
	}
	d.mCalls = cfg.Obs.Counter("dsp.calls")
	d.mServiceUs = cfg.Obs.Histogram("dsp.service_us")
	d.mFallbacks = cfg.Obs.Counter("dsp.fallbacks")
	d.mFallbackUs = cfg.Obs.Histogram("dsp.fallback_us")
	if cfg.Obs.Meter != nil {
		cfg.Obs.Meter.SetPower("dsp", idleWatts)
	}
	return d
}

// ServiceTime returns the execution-only time for a call of the given Pike
// step count (no RPC or queueing).
func (d *DSP) ServiceTime(pikeSteps int64) time.Duration {
	return units.DurationFor(float64(pikeSteps)*DSPCyclesPerStep, Freq)
}

// Latency is the priced cost of one FastRPC call on an idle DSP: RPC
// overhead, input marshaling and service. Every consumer that prices a
// batched offload call (webpage.Profile.RegexDSPTime, regexdsp) reads it.
func (d *DSP) Latency(pikeSteps int64, inputBytes int) time.Duration {
	return d.rpcCost(inputBytes) + d.ServiceTime(pikeSteps)
}

func (d *DSP) rpcCost(inputBytes int) time.Duration {
	return d.cfg.RPCOverhead +
		time.Duration(float64(inputBytes)/1024*float64(MarshalPerKB))
}

// Call submits an offloaded execution; done runs when the result returns to
// the caller. The calling thread is assumed blocked (FastRPC is
// synchronous), which is exactly why offload frees the CPU core.
func (d *DSP) Call(pikeSteps int64, inputBytes int, done func()) {
	now := d.s.Now()
	if d.cfg.Obs.Faults.DSPCallFails() {
		// FastRPC failed (DSP restart, SMMU fault): degrade gracefully by
		// running the backtracking engine on the application core instead.
		// The caller pays the RPC attempt plus the CPU-priced execution; the
		// DSP's own FIFO is untouched.
		lat := d.rpcCost(inputBytes) + units.DurationFor(CPUCycles(pikeSteps), fallbackFreq)
		d.mFallbacks.Add(1)
		d.mFallbackUs.Observe(float64(lat) / 1e3)
		if tr := d.cfg.Obs.Trace; tr != nil {
			tr.Span("dsp", "cpu-fallback", d.cfg.Obs.Pid, d.tid, now, now+lat,
				trace.Arg{Key: "pike_steps", Val: float64(pikeSteps)})
		}
		d.s.PostAfter(lat, func() {
			if done != nil {
				done()
			}
		})
		return
	}
	start := now + d.rpcCost(inputBytes)/2 // request marshal before service
	if d.busyUntil > start {
		start = d.busyUntil
	}
	service := d.ServiceTime(pikeSteps)
	d.busyUntil = start + service
	if d.cfg.Obs.Meter != nil {
		m := d.cfg.Obs.Meter
		d.s.PostAt(start, func() { m.SetPower("dsp", ActiveWatts) })
		end := d.busyUntil
		d.s.PostAt(end, func() {
			// Only drop to idle if no later call extended the busy window.
			if d.busyUntil <= end {
				m.SetPower("dsp", idleWatts)
			}
		})
	}
	d.mCalls.Add(1)
	d.mServiceUs.Observe(float64(service) / 1e3)
	finish := d.busyUntil + d.rpcCost(0)/2 // response unmarshal
	if tr := d.cfg.Obs.Trace; tr != nil {
		tr.Span("dsp", "fastrpc", d.cfg.Obs.Pid, d.tid, now, finish,
			trace.Arg{Key: "pike_steps", Val: float64(pikeSteps)},
			trace.Arg{Key: "queue_us", Val: float64(start-now) / 1e3})
	}
	d.s.PostAt(finish, func() {
		if done != nil {
			done()
		}
	})
}

// CPUCycles prices a backtracking run of the given step count in reference
// CPU cycles (the non-offloaded baseline).
func CPUCycles(btSteps int64) float64 { return float64(btSteps) * CPUCyclesPerStep }
