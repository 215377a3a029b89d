// Package core is the library's front door: it assembles a complete
// simulated mobile device — multicore DVFS CPU, memory, WiFi testbed
// network, energy meter, and optional DSP coprocessor — and runs the
// paper's three applications against it with one call each.
//
// A System corresponds to one configured phone on the paper's LAN testbed.
// Configure it with options that mirror the paper's treatment variables:
//
//	sys := core.NewSystem(device.Nexus4(),
//	    core.WithGovernor(cpu.Userspace),
//	    core.WithClock(units.MHz(384)),
//	)
//	res := sys.LoadPage(page)            // Web browsing   (Fig. 2a, 3)
//	met := sys.StreamVideo(streamCfg)    // YouTube-like   (Fig. 2b, 4)
//	call := sys.PlaceCall(callCfg)       // Skype-like     (Fig. 2c, 5)
//	// iperf (Fig. 6), like every workload, through the one entry point:
//	out, err := sys.Run(core.IperfWorkload{Duration: 10 * time.Second})
//
// Each call runs the discrete-event simulation to completion and returns
// measured metrics. Runs are deterministic for a given configuration.
package core

import (
	"errors"
	"fmt"
	"time"

	"mobileqoe/internal/browser"
	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/dsp"
	"mobileqoe/internal/energy"
	"mobileqoe/internal/fault"
	"mobileqoe/internal/mem"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/obs"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/stats"
	"mobileqoe/internal/telephony"
	"mobileqoe/internal/trace"
	"mobileqoe/internal/units"
	"mobileqoe/internal/video"
	"mobileqoe/internal/webpage"
	"mobileqoe/internal/wprof"
)

// Option configures a System.
type Option func(*options)

type options struct {
	engine     browser.Engine
	governor   cpu.GovernorKind
	clock      units.Freq
	cores      int
	ram        units.ByteSize
	netCfg     netsim.Config
	forceSWDec bool
	noPrefetch bool
	faultPlan  *fault.Plan
	faultSeed  uint64
	tr         *trace.Tracer
	metrics    *trace.Metrics
}

// WithGovernor selects the cpufreq governor (default: Interactive, the
// Android default on the studied phones).
func WithGovernor(g cpu.GovernorKind) Option { return func(o *options) { o.governor = g } }

// WithClock pins the clock via the userspace governor, the paper's sweep
// mechanism. Implies WithGovernor(cpu.Userspace).
func WithClock(f units.Freq) Option {
	return func(o *options) {
		o.governor = cpu.Userspace
		o.clock = f
	}
}

// WithCores hotplugs the device down to n online cores.
func WithCores(n int) Option { return func(o *options) { o.cores = n } }

// WithRAM overrides the device's memory capacity (the paper's RAM-disk
// squeeze).
func WithRAM(b units.ByteSize) Option { return func(o *options) { o.ram = b } }

// WithNetwork overrides the testbed network (default: the paper's 72 Mbps
// AP, 10 ms RTT, 0% loss, packet processing charged to the CPU).
func WithNetwork(cfg netsim.Config) Option { return func(o *options) { o.netCfg = cfg } }

// WithoutPacketCPUCharge is the §4.1 ablation: packet processing becomes
// free and the network no longer feels the clock.
func WithoutPacketCPUCharge() Option {
	return func(o *options) { o.netCfg.ChargeCPU = false }
}

// WithTLS terminates every connection with a TLS handshake and symmetric
// record processing — the paper's §6 future-work software axis.
func WithTLS() Option { return func(o *options) { o.netCfg.TLS = true } }

// WithHTTP2 multiplexes requests over one connection per origin with
// compressed headers, as Chrome 63 negotiated with h2-capable origins.
func WithHTTP2() Option { return func(o *options) { o.netCfg.HTTP2 = true } }

// WithEngine selects the browser implementation profile (default Chrome 63;
// see browser.Engines).
func WithEngine(e browser.Engine) Option { return func(o *options) { o.engine = e } }

// WithFaultPlan attaches a fault-injection plan, replayed against the
// system's clock by an injector seeded with seed. Every subsystem then
// degrades gracefully instead of assuming a clean testbed: netsim retries
// lost segments and reconnects after resets, the browser abandons starved
// resources and reports a degraded load, the video player downswitches, and
// the DSP falls back to CPU execution. A nil plan (or one with no faults)
// attaches nothing and the run is byte-identical to an unfaulted build.
func WithFaultPlan(p *fault.Plan, seed uint64) Option {
	return func(o *options) {
		o.faultPlan = p
		o.faultSeed = seed
	}
}

// WithoutHardwareDecoder is the streaming/telephony counterfactual ablation.
func WithoutHardwareDecoder() Option { return func(o *options) { o.forceSWDec = true } }

// WithoutPrefetch disables the streaming read-ahead buffer.
func WithoutPrefetch() Option { return func(o *options) { o.noPrefetch = true } }

// System is one simulated device on the testbed.
type System struct {
	Spec  device.Spec
	Sim   *sim.Sim
	CPU   *cpu.CPU
	Net   *netsim.Network
	Mem   *mem.Memory
	Meter *energy.Meter
	// Obs is the system's observability/fault context, shared by every
	// subsystem: tracer + trace pid, metrics registry, the fault injector
	// attached via WithFaultPlan (nil when the system runs fault-free), and
	// the energy meter. The zero Ctx means the system runs dark.
	Obs obs.Ctx

	opts options
}

// NewSystem builds a device. The zero option set is the paper's default
// configuration: interactive governor, all cores, stock RAM, LAN testbed.
func NewSystem(spec device.Spec, opts ...Option) *System {
	return build(spec, parseOptions(opts))
}

// NewObservedSystem is NewSystem with a tracer and metrics registry
// attached. With a tracer the system allocates one trace process (pid)
// named after the device, and every subsystem emits spans and counters into
// it at virtual timestamps; the subsystems accumulate counters and
// histograms into the registry over the run. Either argument may be nil, the
// no-op default. The registry is not concurrency-safe: share one only across
// systems driven from the same goroutine. They are arguments rather than
// options because merging extra options into a caller's variadic slice makes
// every call site's option closures escape to the heap, a cost the
// tracing-off path must not pay.
func NewObservedSystem(tr *trace.Tracer, m *trace.Metrics, spec device.Spec, opts ...Option) *System {
	o := parseOptions(opts)
	o.tr, o.metrics = tr, m
	return build(spec, o)
}

func parseOptions(opts []Option) options {
	o := options{
		governor: cpu.Interactive,
		netCfg:   netsim.Config{ChargeCPU: true},
	}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

func build(spec device.Spec, o options) *System {
	s := sim.New()
	oc := obs.Ctx{Trace: o.tr, Metrics: o.metrics}
	if o.tr != nil {
		oc.Pid = o.tr.Process(spec.Name)
	}
	installKernelHook(s, oc)
	// Construction order below is load-bearing for determinism: subsystems
	// schedule their first events as they are built, and the kernel breaks
	// timestamp ties by insertion order. Meter, CPU, injector, network — the
	// same order the pre-obs.Ctx code used.
	oc = oc.WithMeter(energy.NewMeter(s.Now))
	oc.BindMeter()
	ccfg := cpu.FromSpec(spec, o.governor)
	ccfg.Obs = oc // the CPU never consults Faults, so the pre-injector Ctx is complete for it
	if o.clock > 0 {
		ccfg.UserspaceFreq = o.clock
	}
	c := cpu.New(s, ccfg)
	if o.cores > 0 {
		c.SetOnlineCores(o.cores)
	}
	ram := o.ram
	if ram == 0 {
		ram = spec.RAM
	}
	if o.faultPlan != nil {
		oc = oc.WithFaults(fault.NewInjector(s, o.faultPlan,
			stats.NewRNG(o.faultSeed), oc.Trace, oc.Pid, oc.Metrics))
	}
	netCfg := o.netCfg
	netCfg.Obs = oc
	sys := &System{
		Spec:  spec,
		Sim:   s,
		CPU:   c,
		Net:   netsim.New(s, c, netCfg),
		Mem:   mem.New(mem.Config{RAM: ram}),
		Meter: oc.Meter,
		Obs:   oc,
		opts:  o,
	}
	if spec.Has(device.DSP) {
		// The system keeps no handle on the DSP; New still gives the
		// device its FastRPC trace lane, dsp.* registry families and idle
		// power draw.
		dsp.New(s, dsp.Config{Obs: oc})
	}
	return sys
}

// kernelSpanBatch is the number of executed events folded into one span on
// the sim.kernel lane: fine enough to localize activity bursts, coarse
// enough that kernel spans stay a small fraction of the trace.
const kernelSpanBatch = 256

// installKernelHook attaches the per-event observation hook: an event
// counter and queue-depth histogram in the registry, plus one batched span
// per kernelSpanBatch events on a "sim.kernel" lane. With neither consumer
// attached no hook is installed and the kernel keeps its nil-check-only
// fast path.
func installKernelHook(s *sim.Sim, oc obs.Ctx) {
	tr, pid := oc.Trace, oc.Pid
	if tr == nil && oc.Metrics == nil {
		return
	}
	kern := oc.Lane("sim.kernel")
	mEvents := oc.Counter("sim.events")
	mDepth := oc.Histogram("sim.queue_depth")
	var batchStart time.Duration
	var batchMax, inBatch int
	s.SetHook(func(si sim.StepInfo) {
		mEvents.Add(1)
		mDepth.Observe(float64(si.Pending))
		if tr == nil {
			return
		}
		if si.Pending > batchMax {
			batchMax = si.Pending
		}
		inBatch++
		if inBatch == kernelSpanBatch {
			tr.Span("sim", "steps[256]", pid, kern, batchStart, si.At,
				trace.Arg{Key: "max_queue_depth", Val: float64(batchMax)})
			batchStart = si.At
			inBatch, batchMax = 0, 0
		}
	})
}

// ErrDeadline is the typed error Run returns when the virtual deadline
// passes before the workload finishes — a wedged simulation (e.g. a fault
// plan that starves every fetch forever), not a slow one: deadlines are
// virtual hours. Callers match it with errors.Is.
var ErrDeadline = errors.New("core: simulation deadline exceeded before the workload finished")

// Result is the outcome of one workload run. Exactly one field is non-nil,
// the one matching the workload that produced it.
type Result struct {
	Page  *browser.Result
	Video *video.Metrics
	Call  *telephony.Metrics
	Iperf *netsim.IperfResult
}

// Workload is one of the paper's applications, expressed as a unit the
// generic Run driver can execute: it names itself, bounds itself with a
// virtual-time deadline, and starts itself on a system, reporting through
// the callback when finished. The four built-ins are PageLoad, VideoStream,
// CallWorkload, and IperfWorkload; LoadPage/StreamVideo/PlaceCall/Iperf are
// thin wrappers over them.
type Workload interface {
	Name() string
	Deadline() time.Duration
	Start(sys *System, done func(Result))
}

// finisher is the optional post-drain hook a workload can implement for
// work that must run after the simulation has fully settled (trace
// annotation, summary metrics). It runs only on success.
type finisher interface {
	finish(sys *System, res *Result)
}

// Run drives the simulation until w completes or its virtual deadline
// passes, then drains straggler events. It deliberately does not advance
// the clock past the last event, so time-integrated measurements (energy)
// reflect only the workload. On deadline it returns an error wrapping
// ErrDeadline (and the zero Result); the system is left drained but the
// workload's own state is abandoned mid-flight, so a deadlined System
// should not be reused.
func (sys *System) Run(w Workload) (Result, error) {
	var res Result
	done := false
	// Virtual time consumed by this workload — deterministic (pure simulation
	// output), so run logs can report it per cell even when wall time varies.
	// Accumulated on both the success and deadline paths.
	virtStart := sys.Sim.Now()
	defer func() {
		sys.Obs.Counter("sim.virtual_ms").Add(float64(sys.Sim.Now()-virtStart) / float64(time.Millisecond))
	}()
	w.Start(sys, func(r Result) {
		res = r
		done = true
		sys.CPU.Stop()
	})
	limit := sys.Sim.Now() + w.Deadline()
	for !done && sys.Sim.Now() <= limit && sys.Sim.Step() {
	}
	sys.CPU.Stop()
	if !done {
		// Bounded drain only: a wedged workload may be holding a perpetually
		// self-rescheduling event chain, and a full drain would spin forever —
		// exactly the hang the deadline exists to convert into an error.
		sys.Sim.RunUntil(sys.Sim.Now())
		return Result{}, fmt.Errorf("%s: %w", w.Name(), ErrDeadline)
	}
	sys.Sim.Run()
	if f, ok := w.(finisher); ok {
		f.finish(sys, &res)
	}
	return res, nil
}

// PageLoad is the web-browsing workload (Fig. 2a, 3): load one page, PLT is
// the metric.
type PageLoad struct {
	Page *webpage.Page
}

func (PageLoad) Name() string            { return "pageload" }
func (PageLoad) Deadline() time.Duration { return 30 * time.Minute }

func (w PageLoad) Start(sys *System, done func(Result)) {
	browser.Load(browser.Config{Sim: sys.Sim, CPU: sys.CPU, Net: sys.Net, Mem: sys.Mem,
		Engine: sys.opts.engine, Obs: sys.Obs},
		w.Page, func(r browser.Result) {
			done(Result{Page: &r})
		})
}

func (PageLoad) finish(sys *System, res *Result) {
	if sys.Obs.Trace != nil {
		// Annotate the replayed waterfall with each activity's critical-path
		// segment so trace consumers (internal/profile, tracediff) can
		// attribute PLT — and PLT deltas between devices — span by span.
		st := wprof.FromResult(*res.Page).CriticalPath()
		critMs := make(map[int]float64, len(st.Segments))
		for _, seg := range st.Segments {
			critMs[seg.NodeID] = float64(seg.Dur) / 1e6
		}
		res.Page.EmitTrace(sys.Obs.Trace, sys.Obs.Pid, critMs)
	}
	sys.Obs.Histogram("browser.plt_ms").Observe(float64(res.Page.PLT) / 1e6)
}

// VideoStream is the streaming workload (Fig. 2b, 4).
type VideoStream struct {
	Config video.StreamConfig
}

func (VideoStream) Name() string            { return "video" }
func (VideoStream) Deadline() time.Duration { return 4 * time.Hour }

func (w VideoStream) Start(sys *System, done func(Result)) {
	video.Stream(video.Config{
		Sim: sys.Sim, CPU: sys.CPU, Net: sys.Net, Mem: sys.Mem, Spec: sys.Spec,
		ForceSoftwareDecode: sys.opts.forceSWDec,
		DisablePrefetch:     sys.opts.noPrefetch,
		Obs:                 sys.Obs,
	}, w.Config, func(m video.Metrics) {
		done(Result{Video: &m})
	})
}

// CallWorkload is the telephony workload (Fig. 2c, 5).
type CallWorkload struct {
	Config telephony.CallConfig
}

func (CallWorkload) Name() string            { return "call" }
func (CallWorkload) Deadline() time.Duration { return 4 * time.Hour }

func (w CallWorkload) Start(sys *System, done func(Result)) {
	telephony.Call(telephony.Config{
		Sim: sys.Sim, CPU: sys.CPU, Net: sys.Net, Mem: sys.Mem, Spec: sys.Spec,
		ForceSoftwareCodec: sys.opts.forceSWDec,
		Obs:                sys.Obs,
	}, w.Config, func(m telephony.Metrics) {
		done(Result{Call: &m})
	})
}

// IperfWorkload is the bulk-TCP throughput workload (§4.1, Fig. 6).
type IperfWorkload struct {
	Duration time.Duration
}

func (IperfWorkload) Name() string              { return "iperf" }
func (w IperfWorkload) Deadline() time.Duration { return w.Duration + time.Minute }

func (w IperfWorkload) Start(sys *System, done func(Result)) {
	sys.Net.Iperf(w.Duration, func(r netsim.IperfResult) {
		done(Result{Iperf: &r})
	})
}

// LoadPage loads a page in the simulated browser and returns the trace. It
// panics if the run deadlines; harnesses that must survive wedged cells use
// Run(PageLoad{...}) and handle ErrDeadline.
func (sys *System) LoadPage(page *webpage.Page) browser.Result {
	res, err := sys.Run(PageLoad{Page: page})
	if err != nil {
		panic(err)
	}
	return *res.Page
}

// StreamVideo plays a clip and returns the streaming QoE metrics. It panics
// on deadline; see LoadPage.
func (sys *System) StreamVideo(sc video.StreamConfig) video.Metrics {
	res, err := sys.Run(VideoStream{Config: sc})
	if err != nil {
		panic(err)
	}
	return *res.Video
}

// PlaceCall runs a video call and returns the telephony QoE metrics. It
// panics on deadline; see LoadPage.
func (sys *System) PlaceCall(cc telephony.CallConfig) telephony.Metrics {
	res, err := sys.Run(CallWorkload{Config: cc})
	if err != nil {
		panic(err)
	}
	return *res.Call
}
