package fault

import (
	"time"

	"mobileqoe/internal/sim"
	"mobileqoe/internal/stats"
	"mobileqoe/internal/trace"
)

// Injector replays one Plan against one simulation. Build it with
// NewInjector before running the simulation (window-open events must not be
// in the past). All methods are nil-safe: a nil *Injector reports no faults,
// so consumers thread it unconditionally.
//
// The injector is single-goroutine like the simulation kernel it observes;
// every stochastic answer draws from its private RNG in event order, which
// is what makes faulted runs deterministic.
type Injector struct {
	s   *sim.Sim
	rng *stats.RNG
	tr  *trace.Tracer
	pid int
	m   *trace.Metrics
	tid int // trace lane, 0 when tracing is off

	// burst is the innermost open burst-loss spec, with its GE chain state.
	burst     *Spec
	geBad     bool
	rtts      []*Spec
	dips      []*Spec
	resets    []*Spec
	slows     []*Spec
	errs      []*Spec
	dsps      []*Spec
	observers map[Kind][]func()
}

// NewInjector schedules every window of the plan on the simulator and
// returns the injector. A nil plan (or a plan with no faults) returns nil,
// which is a valid no-fault injector.
//
// The trailing arguments attach the injector's own observability — fault
// sits below the obs package in the layering, so they are passed explicitly
// rather than as an obs.Ctx. tr, when non-nil, receives one "fault:<kind>"
// instant at every window open and one "recovered:<kind>" span covering the
// window on a "fault:injector" lane, attributed to pid. m, when non-nil,
// accumulates fault.injected and per-kind fault.injected.<kind> counters at
// window open, and a fault.recovered counter at window close — so
// injected == recovered in a drained run is the "all windows closed"
// liveness check run logs report.
func NewInjector(s *sim.Sim, p *Plan, rng *stats.RNG, tr *trace.Tracer, pid int, m *trace.Metrics) *Injector {
	if p == nil || len(p.Faults) == 0 {
		return nil
	}
	if rng == nil {
		rng = stats.NewRNG(0xFA17)
	}
	inj := &Injector{s: s, rng: rng, tr: tr, pid: pid, m: m}
	if tr != nil {
		inj.tid = tr.Thread(pid, "fault:injector")
	}
	for i := range p.Faults {
		sp := p.Faults[i] // private copy per window
		open := sp.at()
		if open < s.Now() {
			open = s.Now()
		}
		s.At(open, func() { inj.open(&sp, open) })
	}
	return inj
}

// open activates one window and schedules its close.
func (i *Injector) open(sp *Spec, at time.Duration) {
	switch sp.Kind {
	case BurstLoss:
		i.burst = sp
		i.geBad = false // every burst window starts in the good state
	case RTTSpike:
		i.rtts = append(i.rtts, sp)
	case BandwidthDip:
		i.dips = append(i.dips, sp)
	case ConnReset:
		i.resets = append(i.resets, sp)
	case ServerSlow:
		i.slows = append(i.slows, sp)
	case ServerError:
		i.errs = append(i.errs, sp)
	case DSPFail:
		i.dsps = append(i.dsps, sp)
	}
	i.m.Counter("fault.injected").Add(1)
	i.m.Counter("fault.injected." + string(sp.Kind)).Add(1)
	if i.tr != nil {
		i.tr.Instant("fault", "fault:"+string(sp.Kind), i.pid, i.tid, at)
	}
	for _, fn := range i.observers[sp.Kind] {
		fn()
	}
	i.s.At(at+sp.dur(), func() { i.close(sp, at) })
}

// close deactivates the window and emits the recovery span that pairs with
// the open instant (profile.FaultsRecovered checks the pairing).
func (i *Injector) close(sp *Spec, openedAt time.Duration) {
	remove := func(list []*Spec) []*Spec {
		for k, x := range list {
			if x == sp {
				return append(list[:k], list[k+1:]...)
			}
		}
		return list
	}
	switch sp.Kind {
	case BurstLoss:
		if i.burst == sp {
			i.burst = nil
		}
	case RTTSpike:
		i.rtts = remove(i.rtts)
	case BandwidthDip:
		i.dips = remove(i.dips)
	case ConnReset:
		i.resets = remove(i.resets)
	case ServerSlow:
		i.slows = remove(i.slows)
	case ServerError:
		i.errs = remove(i.errs)
	case DSPFail:
		i.dsps = remove(i.dsps)
	}
	i.m.Counter("fault.recovered").Add(1)
	if i.tr != nil {
		i.tr.Span("fault", "recovered:"+string(sp.Kind), i.pid, i.tid,
			openedAt, i.s.Now())
	}
}

// OnFault registers fn to run at the open of every window of kind k.
// Registration must happen before the window opens to observe it.
func (i *Injector) OnFault(k Kind, fn func()) {
	if i == nil || fn == nil {
		return
	}
	if i.observers == nil {
		i.observers = map[Kind][]func(){}
	}
	i.observers[k] = append(i.observers[k], fn)
}

// SegmentLost samples the burst-loss process for one segment, advancing the
// Gilbert–Elliott chain. Outside a burst window it reports false without
// consuming randomness.
func (i *Injector) SegmentLost() bool {
	if i == nil || i.burst == nil {
		return false
	}
	sp := i.burst
	if i.geBad {
		if i.rng.Float64() < sp.pBadGood() {
			i.geBad = false
		}
	} else if i.rng.Float64() < sp.pGoodBad() {
		i.geBad = true
	}
	loss := sp.goodLoss()
	if i.geBad {
		loss = sp.badLoss()
	}
	return i.rng.Float64() < loss
}

// ExtraRTT returns the additional one-round-trip delay currently injected
// (the sum over open rtt-spike windows).
func (i *Injector) ExtraRTT() time.Duration {
	if i == nil {
		return 0
	}
	var d time.Duration
	for _, sp := range i.rtts {
		d += sp.addRTT()
	}
	return d
}

// RateFactor returns the current link-rate multiplier in (0,1]; overlapping
// bandwidth dips compound.
func (i *Injector) RateFactor() float64 {
	if i == nil || len(i.dips) == 0 {
		return 1
	}
	f := 1.0
	for _, sp := range i.dips {
		f *= sp.rateFactor()
	}
	return f
}

// ConnResets samples whether a request issued now hits an injected
// connection reset.
func (i *Injector) ConnResets() bool {
	if i == nil || len(i.resets) == 0 {
		return false
	}
	return i.rng.Float64() < i.resets[len(i.resets)-1].prob()
}

// ServerDelay returns the extra server think time currently injected.
func (i *Injector) ServerDelay() time.Duration {
	if i == nil {
		return 0
	}
	var d time.Duration
	for _, sp := range i.slows {
		d += sp.delay()
	}
	return d
}

// ServerErrors samples whether the server answers a request served now with
// an error response.
func (i *Injector) ServerErrors() bool {
	if i == nil || len(i.errs) == 0 {
		return false
	}
	return i.rng.Float64() < i.errs[len(i.errs)-1].prob()
}

// DSPCallFails samples whether a FastRPC call issued now fails.
func (i *Injector) DSPCallFails() bool {
	if i == nil || len(i.dsps) == 0 {
		return false
	}
	return i.rng.Float64() < i.dsps[len(i.dsps)-1].prob()
}
