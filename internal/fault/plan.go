// Package fault is the deterministic fault-injection plane. A Plan is a
// schedule of transient faults — burst loss, RTT spikes, bandwidth dips,
// connection resets, slow or erroring servers, DSP FastRPC
// failures, memory-pressure kills — and an Injector replays the plan against
// one simulation's clock. All stochastic decisions draw from the injector's
// own seeded RNG in simulation-event order, so a faulted run is byte-for-byte
// identical across repeats and across sequential vs. parallel harnesses.
//
// The injector composes with any consumer through nil-safe query methods:
// netsim asks SegmentLost/ExtraRTT/RateFactor/ConnResets/ServerDelay/
// ServerErrors per event, dsp asks DSPCallFails per call, and
// push-style consumers (the browser's memory-kill restart) register OnFault
// observers. A nil *Injector answers every query with "no fault", which keeps
// the fault-free paths of the consumers byte-identical to a build without
// this package.
package fault

import (
	"fmt"
	"os"
	"time"

	"mobileqoe/internal/strictjson"
)

// Kind names one fault mechanism.
type Kind string

// The supported fault kinds.
const (
	// BurstLoss drives segment loss from a two-state Gilbert–Elliott chain
	// for the duration of the window (bursty loss, unlike the static
	// Bernoulli knob).
	BurstLoss Kind = "burst-loss"
	// RTTSpike adds AddRTTMs of propagation delay to every delivery.
	RTTSpike Kind = "rtt-spike"
	// BandwidthDip multiplies the link rate by RateFactor (< 1).
	BandwidthDip Kind = "bandwidth-dip"
	// ConnReset resets TCP connections issuing requests inside the window
	// with probability Prob; the device reconnects with backoff and replays.
	ConnReset Kind = "conn-reset"
	// ServerSlow adds DelayMs of server think time to every request.
	ServerSlow Kind = "server-slow"
	// ServerError makes the server answer requests with a short error
	// response (probability Prob) instead of the real payload.
	ServerError Kind = "server-error"
	// DSPFail makes FastRPC offload calls fail (probability Prob); the
	// caller falls back to CPU execution and pays the penalty.
	DSPFail Kind = "dsp-fail"
	// MemKill models a memory-pressure kill: observers (the browser) are
	// notified once at the window start and restart their workload.
	MemKill Kind = "mem-kill"
)

// Kinds returns every supported fault kind, in a fixed order.
func Kinds() []Kind {
	return []Kind{BurstLoss, RTTSpike, BandwidthDip, ConnReset,
		ServerSlow, ServerError, DSPFail, MemKill}
}

// Spec schedules one fault window. Times are virtual milliseconds from the
// start of the simulation the plan is attached to. Parameter fields that are
// zero take per-kind defaults (see the accessors below), so a minimal spec is
// just {"kind": "...", "at_ms": ..., "dur_ms": ...}.
type Spec struct {
	Kind  Kind    `json:"kind"`
	AtMs  float64 `json:"at_ms"`
	DurMs float64 `json:"dur_ms"`

	// Gilbert–Elliott parameters (burst-loss): per-segment transition
	// probabilities between the good and bad states, and the loss rate in
	// each state.
	PGoodBad float64 `json:"p_good_bad,omitempty"`
	PBadGood float64 `json:"p_bad_good,omitempty"`
	GoodLoss float64 `json:"good_loss,omitempty"`
	BadLoss  float64 `json:"bad_loss,omitempty"`

	// AddRTTMs is the extra round-trip time of an rtt-spike window.
	AddRTTMs float64 `json:"add_rtt_ms,omitempty"`
	// RateFactor scales the link rate during a bandwidth-dip window.
	RateFactor float64 `json:"rate_factor,omitempty"`
	// Prob is the per-decision probability for conn-reset, server-error and
	// dsp-fail windows.
	Prob float64 `json:"prob,omitempty"`
	// DelayMs is the added server think time of a server-slow window.
	DelayMs float64 `json:"delay_ms,omitempty"`
}

// Per-kind parameter defaults, resolved at query time so a Spec round-trips
// through JSON unchanged.
const (
	defaultPGoodBad   = 0.25
	defaultPBadGood   = 0.5
	defaultGoodLoss   = 0.01
	defaultBadLoss    = 0.6
	defaultAddRTTMs   = 150.0
	defaultRateFactor = 0.25
	defaultProb       = 1.0
	defaultDelayMs    = 300.0
)

func (sp Spec) at() time.Duration  { return time.Duration(sp.AtMs * float64(time.Millisecond)) }
func (sp Spec) dur() time.Duration { return time.Duration(sp.DurMs * float64(time.Millisecond)) }

func orDefault(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

func (sp Spec) pGoodBad() float64 { return orDefault(sp.PGoodBad, defaultPGoodBad) }
func (sp Spec) pBadGood() float64 { return orDefault(sp.PBadGood, defaultPBadGood) }
func (sp Spec) goodLoss() float64 { return orDefault(sp.GoodLoss, defaultGoodLoss) }
func (sp Spec) badLoss() float64  { return orDefault(sp.BadLoss, defaultBadLoss) }
func (sp Spec) addRTT() time.Duration {
	return time.Duration(orDefault(sp.AddRTTMs, defaultAddRTTMs) * float64(time.Millisecond))
}
func (sp Spec) rateFactor() float64 { return orDefault(sp.RateFactor, defaultRateFactor) }
func (sp Spec) prob() float64       { return orDefault(sp.Prob, defaultProb) }
func (sp Spec) delay() time.Duration {
	return time.Duration(orDefault(sp.DelayMs, defaultDelayMs) * float64(time.Millisecond))
}

// validate checks one spec; i is its index in the plan, for error text.
func (sp Spec) validate(i int) error {
	known := false
	for _, k := range Kinds() {
		if sp.Kind == k {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("fault: spec %d: unknown kind %q", i, sp.Kind)
	}
	if sp.AtMs < 0 {
		return fmt.Errorf("fault: spec %d (%s): negative at_ms %g", i, sp.Kind, sp.AtMs)
	}
	if sp.DurMs <= 0 {
		return fmt.Errorf("fault: spec %d (%s): dur_ms %g must be > 0", i, sp.Kind, sp.DurMs)
	}
	probField := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("fault: spec %d (%s): %s %g outside [0,1]", i, sp.Kind, name, v)
		}
		return nil
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"p_good_bad", sp.PGoodBad}, {"p_bad_good", sp.PBadGood},
		{"good_loss", sp.GoodLoss}, {"bad_loss", sp.BadLoss}, {"prob", sp.Prob},
	} {
		if err := probField(p.name, p.v); err != nil {
			return err
		}
	}
	if sp.AddRTTMs < 0 {
		return fmt.Errorf("fault: spec %d (%s): negative add_rtt_ms %g", i, sp.Kind, sp.AddRTTMs)
	}
	if sp.DelayMs < 0 {
		return fmt.Errorf("fault: spec %d (%s): negative delay_ms %g", i, sp.Kind, sp.DelayMs)
	}
	if sp.RateFactor < 0 || sp.RateFactor > 1 {
		return fmt.Errorf("fault: spec %d (%s): rate_factor %g outside [0,1]", i, sp.Kind, sp.RateFactor)
	}
	return nil
}

// Plan is a named schedule of fault windows.
type Plan struct {
	Name   string `json:"name,omitempty"`
	Faults []Spec `json:"faults"`
}

// Validate checks every spec and returns the first problem found.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, sp := range p.Faults {
		if err := sp.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// ParsePlan decodes and validates a JSON plan. Unknown fields are rejected,
// so a typoed parameter fails loudly instead of silently injecting nothing.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := strictjson.Decode(data, &p); err != nil {
		return nil, fmt.Errorf("fault: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadPlan reads and parses a plan file.
func LoadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	p, err := ParsePlan(data)
	if err != nil {
		return nil, fmt.Errorf("fault: %s: %w", path, err)
	}
	if p.Name == "" {
		p.Name = path
	}
	return p, nil
}

// Builtin reports whether ref names a built-in plan, "none" or "default",
// rather than a plan file.
func Builtin(ref string) bool { return ref == "none" || ref == "default" }

// Resolve returns the plan a reference names: "" and "none" name no plan
// (nil), "default" the built-in mixed plan, and anything else a JSON plan
// file. It is the one reader of the -faults flag, a scenario's fault_plan
// and a fleet spec's fault_plans entries.
func Resolve(ref string) (*Plan, error) {
	switch ref {
	case "", "none":
		return nil, nil
	case "default":
		return Default(), nil
	}
	return LoadPlan(ref)
}

// Default returns the standard mixed-fault plan: one window of every kind,
// spread over the first ~14 virtual seconds so that short and long workloads
// alike see faults early. It is what qoesim -faults default selects.
func Default() *Plan {
	return &Plan{
		Name: "default",
		Faults: []Spec{
			{Kind: BurstLoss, AtMs: 300, DurMs: 1200},
			{Kind: RTTSpike, AtMs: 1000, DurMs: 800, AddRTTMs: 120},
			{Kind: BandwidthDip, AtMs: 2500, DurMs: 1500, RateFactor: 0.25},
			{Kind: ConnReset, AtMs: 4200, DurMs: 400, Prob: 0.5},
			{Kind: ServerSlow, AtMs: 7000, DurMs: 1000, DelayMs: 250},
			{Kind: ServerError, AtMs: 8500, DurMs: 500, Prob: 0.75},
			{Kind: DSPFail, AtMs: 9500, DurMs: 2000},
			{Kind: MemKill, AtMs: 12000, DurMs: 100},
		},
	}
}
