// Package cpu simulates a mobile multicore application processor: per-cluster
// DVFS with an operating-point table, the five Android cpufreq governors the
// paper studies (performance, interactive, userspace, ondemand, powersave),
// CPU hotplug for the core-count sweeps, big.LITTLE placement policy, and a
// processor-sharing scheduler that charges task cycles to cores at the
// current frequency.
//
// Workloads are expressed as Threads that execute Tasks measured in
// reference cycles (cycles at IPC 1.0, the Nexus4 Krait baseline). A thread
// runs on one core at a time; runnable threads assigned to the same core
// share it equally. Everything runs inside a sim.Sim, so runs are
// deterministic and an energy.Meter can integrate power over virtual time.
//
// # Incremental scheduling
//
// A running task's progress is a function of its anchor: the cycles it had
// left at the instant its thread's rate or head task last changed. The task
// is re-anchored (charged rate × elapsed time) only at such a change, and
// the thread's completion event is reprogrammed only then, so a thread's
// accounting never depends on how often unrelated events happen or how often
// anyone reads the CPU. Every mutation (placement, detach, rebalance move,
// weight, frequency or hotplug change, a new head task) sets the affected
// cores' bits in a dirty mask; a re-plan walks the mask lowest bit first, so
// dirty cores are re-planned, and their completion events re-armed, in core
// order, and it returns at once when the mask is empty. The load balancer
// runs only while some core holds two or more threads, a count kept by the
// one function every thread-list change goes through. Core busy time
// accrues at busy/idle transitions, and CPU power reaches the meter only
// when the total changes. The total is memoized per busy-core mask, each
// entry summed in core order exactly as a full pass would, and the memo is
// cleared whenever a frequency or the online set changes; so the idle↔busy
// flip of a per-packet charge costs a table read, not a pass over the cores.
package cpu

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"mobileqoe/internal/device"
	"mobileqoe/internal/energy"
	"mobileqoe/internal/obs"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/trace"
	"mobileqoe/internal/units"
)

// GovernorKind selects a cpufreq scaling policy. The short names match the
// x-axis labels of the paper's governor figures.
type GovernorKind string

// The governors observed on the studied phones.
const (
	Performance GovernorKind = "PF" // pin to fmax
	Interactive GovernorKind = "IN" // fast ramp on load, gradual decay
	Userspace   GovernorKind = "US" // fixed experimenter-chosen frequency
	Ondemand    GovernorKind = "OD" // jump to fmax over threshold, else proportional
	Powersave   GovernorKind = "PW" // pin to fmin
)

// Governors lists all kinds in the paper's plotting order.
func Governors() []GovernorKind {
	return []GovernorKind{Performance, Interactive, Userspace, Ondemand, Powersave}
}

// Governor sampling parameters (Android defaults, simplified).
const (
	ondemandPeriod      = 100 * time.Millisecond
	interactivePeriod   = 20 * time.Millisecond
	ondemandUpThresh    = 0.80
	interactiveUpThresh = 0.85
)

// Config describes the CPU to simulate.
type Config struct {
	Big             device.Cluster
	Little          *device.Cluster // nil for single-cluster SoCs
	ForegroundOnBig bool            // vendor scheduler policy (see device.Spec)
	Governor        GovernorKind
	UserspaceFreq   units.Freq // target for the userspace governor; 0 = median step

	// Obs bundles the observability plane. Obs.Meter, when non-nil,
	// integrates component "cpu" power. Obs.Trace, when non-nil, receives
	// task spans (one lane per thread), per-cluster frequency counter
	// tracks, and hotplug instants under category "cpu", attributed to
	// process Obs.Pid. Obs.Metrics, when non-nil, accumulates
	// cpu.governor_transitions, cpu.tasks, and cpu.task_cycles.
	Obs obs.Ctx

	// SwitchOverhead is the per-extra-runnable-thread multiplexing penalty on
	// a core: with n threads sharing a core its useful capacity shrinks to
	// 1/(1+SwitchOverhead·(n-1)) — context switches, cache thrash, scheduler
	// latency. Zero selects the default (DefaultSwitchOverhead); pass
	// NoSwitchOverhead for an ideal fluid processor. This penalty is what
	// lets a hotplugged single core behave worse than the same aggregate
	// capacity spread over four cores (the paper's Fig. 4c stalls).
	SwitchOverhead float64
}

// Context-switch overhead settings for Config.SwitchOverhead.
const (
	DefaultSwitchOverhead = 0.20
	NoSwitchOverhead      = -1
)

// RTWeightThreshold is the scheduling weight at which a thread is treated
// as real-time: it is served before normal threads and pays no multiplexing
// penalty (it preempts rather than round-robins). Android's compositor and
// audio threads behave this way.
const RTWeightThreshold = 4

// switchEff returns the capacity factor for a core running n threads.
func (c *CPU) switchEff(n int) float64 {
	if n <= 1 {
		return 1
	}
	ov := c.cfg.SwitchOverhead
	if ov == 0 {
		ov = DefaultSwitchOverhead
	}
	if ov < 0 {
		return 1
	}
	return 1 / (1 + ov*float64(n-1))
}

// FromSpec builds a Config from a catalog device.
func FromSpec(s device.Spec, gov GovernorKind) Config {
	return Config{
		Big:             s.Big,
		Little:          s.Little,
		ForegroundOnBig: s.ForegroundOnBig,
		Governor:        gov,
	}
}

// CPU is a simulated application processor.
type CPU struct {
	s        *sim.Sim
	cfg      Config
	clusters []*cluster
	cores    []*core // all cores, big cluster first
	threads  []*Thread
	ticker   *sim.Ticker
	online   int
	taskFree []*task           // recycled task objects (the per-packet Exec path is hot)
	power    *energy.Component // the meter's "cpu" component; nil without a meter
	watts    float64           // CPU power last sent to the meter; -1 before the first

	// dirty has bit i set when core i's thread list, weights, frequency or
	// online state changed since its rates were last planned.
	dirty uint64
	// crowded counts the cores holding two or more threads: the only cores
	// rebalance can take a thread from.
	crowded int
	// busyMask has bit i set when core i is busy, as of the last re-plan.
	busyMask uint64
	// powerMemo[busyMask] is the CPU power total for that busy set at the
	// current frequencies and online set, or -1 when not yet summed; nil
	// without a meter.
	powerMemo []float64
	// spanNames maps a task name to its trace span name; nil until the
	// first traced completion.
	spanNames map[string]string

	// reference, set by tests, makes every re-plan the ungated one the fast
	// paths must reproduce: every core re-planned with its load summed
	// afresh, rebalance always called, and power summed without the memo.
	reference bool

	// Metrics handles, resolved once in New; nil-safe when metrics are off.
	mGovTransitions *trace.Counter
	mTasks          *trace.Counter
	mTaskCycles     *trace.Histogram
}

type cluster struct {
	id    int
	spec  device.Cluster
	steps []units.Freq
	freq  units.Freq
	volts energy.VoltageCurve
	cores []*core
	ceff  float64
	watts float64 // dynamic power of one busy core at freq
}

type core struct {
	cl           *cluster
	id           int // global index
	online       bool
	threads      []*Thread
	busy         bool          // online with runnable threads, as of the last re-plan
	busySince    time.Duration // busy time is accrued up to here while busy
	busyAccum    time.Duration
	lastBusySnap time.Duration // snapshot at last governor sample
	load         float64       // sum of the weights of threads, for placement
	crowded      bool          // holds two or more threads (see CPU.crowded)
}

// Thread is a schedulable FIFO queue of tasks. Create with NewThread.
type Thread struct {
	cpu        *CPU
	foreground bool
	weight     float64 // scheduling weight (1 = CFS default)
	queue      []*task
	core       *core
	rate       float64 // cycles/sec currently granted
	// completion is the thread's single completion event, allocated on first
	// use and thereafter reprogrammed in place (sim.Reset) only when the
	// thread's rate or head task changes, at which instant the head task is
	// re-anchored; completeFn is its one bound callback. Queued() tells
	// whether it is currently armed.
	completion *sim.Event
	completeFn func()
	rearm      bool    // head task changed since completion was last armed
	executed   float64 // total cycles retired
	tid        int     // trace lane, 0 when tracing is off
}

// SetWeight changes the thread's scheduling weight. Runnable threads on a
// core share it in proportion to weight; a real-time thread (e.g. Android's
// compositor) models as a high weight. Must be positive.
func (t *Thread) SetWeight(w float64) {
	if w <= 0 {
		panic("cpu: thread weight must be positive")
	}
	t.weight = w
	if t.core != nil {
		t.cpu.changed(t.core)
	}
	t.cpu.reschedule()
}

type task struct {
	name      string
	remaining float64 // cycles left at the anchor instant
	cost      float64 // original reference-cycle cost
	done      func()
	anchor    time.Duration // when remaining was last brought up to date
	start     time.Duration // when the task reached the queue head
}

// maxCores is the most cores a CPU may have: the dirty and busy masks give
// each core a bit, and the power memo has an entry per busy set.
const maxCores = 8

// New constructs a CPU on the given simulator. The governor starts running
// immediately (its first sample fires one period in).
func New(s *sim.Sim, cfg Config) *CPU {
	if cfg.Big.Cores <= 0 {
		panic("cpu: big cluster must have at least one core")
	}
	if cfg.Big.IPC <= 0 {
		panic("cpu: big cluster IPC must be positive")
	}
	c := &CPU{s: s, cfg: cfg, watts: -1}
	if m := cfg.Obs.Meter; m != nil {
		c.power = m.Component("cpu")
	}
	c.addCluster(cfg.Big, 1.0)
	if cfg.Little != nil {
		if cfg.Little.Cores <= 0 || cfg.Little.IPC <= 0 {
			panic("cpu: invalid little cluster")
		}
		c.addCluster(*cfg.Little, 0.35) // little cores switch far less capacitance
	}
	if len(c.cores) > maxCores {
		panic(fmt.Sprintf("cpu: %d cores, at most %d supported", len(c.cores), maxCores))
	}
	if c.power != nil {
		c.powerMemo = make([]float64, 1<<len(c.cores))
		c.clearPowerMemo()
	}
	c.online = len(c.cores)
	c.mGovTransitions = cfg.Obs.Counter("cpu.governor_transitions")
	c.mTasks = cfg.Obs.Counter("cpu.tasks")
	c.mTaskCycles = cfg.Obs.Histogram("cpu.task_cycles")
	c.applyGovernorInitial()
	for _, cl := range c.clusters {
		cl.updateWatts()
		c.traceFreq(cl)
	}
	c.startGovernor()
	c.updatePower()
	return c
}

// traceFreq samples the cluster's frequency counter track.
func (c *CPU) traceFreq(cl *cluster) {
	if tr := c.cfg.Obs.Trace; tr != nil {
		tr.Counter("cpu", fmt.Sprintf("freq.cluster%d", cl.id),
			c.cfg.Obs.Pid, c.s.Now(), cl.freq.Hz()/1e6)
	}
}

// setFreq retargets a cluster, recording the governor decision when the
// operating point actually changes.
func (c *CPU) setFreq(cl *cluster, f units.Freq) {
	if f == cl.freq {
		return
	}
	cl.freq = f
	cl.updateWatts()
	c.clearPowerMemo()
	for _, co := range cl.cores {
		c.markDirty(co)
	}
	c.mGovTransitions.Add(1)
	c.traceFreq(cl)
}

// updateWatts caches the dynamic power of one busy core at the cluster's
// current frequency.
func (cl *cluster) updateWatts() {
	cl.watts = energy.DynamicPower(cl.ceff, cl.freq, cl.volts.VoltsAt(cl.freq))
}

func (c *CPU) addCluster(spec device.Cluster, ceffScale float64) {
	cl := &cluster{
		id:    len(c.clusters),
		spec:  spec,
		steps: spec.FreqTable(),
		volts: energy.DefaultVoltageCurve(spec.FMin, spec.FMax),
		ceff:  energy.CoreCeff * ceffScale,
	}
	cl.freq = spec.FMax
	for i := 0; i < spec.Cores; i++ {
		co := &core{cl: cl, id: len(c.cores), online: true}
		cl.cores = append(cl.cores, co)
		c.cores = append(c.cores, co)
	}
	c.clusters = append(c.clusters, cl)
}

// Stop halts the governor ticker. Call when an experiment's run is complete
// so that Sim.Run terminates.
func (c *CPU) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
}

// ----- governors -----

func (c *CPU) applyGovernorInitial() {
	for _, cl := range c.clusters {
		switch c.cfg.Governor {
		case Performance:
			cl.freq = cl.spec.FMax
		case Powersave:
			cl.freq = cl.spec.FMin
		case Userspace:
			cl.freq = cl.snap(c.userspaceTarget(cl))
		case Ondemand, Interactive:
			cl.freq = cl.spec.FMin // scale up on demand
		default:
			panic(fmt.Sprintf("cpu: unknown governor %q", c.cfg.Governor))
		}
	}
}

func (c *CPU) userspaceTarget(cl *cluster) units.Freq {
	if c.cfg.UserspaceFreq > 0 {
		return c.cfg.UserspaceFreq
	}
	return cl.steps[len(cl.steps)/2]
}

func (c *CPU) startGovernor() {
	var period time.Duration
	switch c.cfg.Governor {
	case Ondemand:
		period = ondemandPeriod
	case Interactive:
		period = interactivePeriod
	default:
		return // static policies need no sampling
	}
	c.ticker = c.s.NewTicker(period, func() { c.governorSample(period) })
}

func (c *CPU) governorSample(window time.Duration) {
	c.syncBusy()
	for _, cl := range c.clusters {
		util := cl.utilizationSince(window)
		var target units.Freq
		switch c.cfg.Governor {
		case Ondemand:
			if util > ondemandUpThresh {
				target = cl.spec.FMax
			} else {
				// Proportional scale-down keeping headroom over the load.
				target = units.Freq(util / ondemandUpThresh * cl.spec.FMax.Hz())
			}
		case Interactive:
			hispeed := cl.snap(units.Freq(0.8 * cl.spec.FMax.Hz()))
			switch {
			case util > interactiveUpThresh && cl.freq < hispeed:
				target = hispeed
			case util > interactiveUpThresh:
				target = cl.spec.FMax
			default:
				// Gradual decay: one step down toward the load-proportional target.
				want := units.Freq(util / interactiveUpThresh * cl.spec.FMax.Hz())
				target = cl.stepToward(want)
			}
		}
		c.setFreq(cl, cl.snap(target))
	}
	c.reschedule()
}

// utilizationSince returns the highest per-core utilization in the window,
// matching Linux cpufreq's policy of scaling to the busiest CPU in the
// cluster (averaging would let one saturated core hide behind idle ones).
func (cl *cluster) utilizationSince(window time.Duration) float64 {
	util := 0.0
	for _, co := range cl.cores {
		u := float64(co.busyAccum-co.lastBusySnap) / float64(window)
		co.lastBusySnap = co.busyAccum
		if co.online && u > util {
			util = u
		}
	}
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return util
}

// snap rounds up to the nearest available operating point (cpufreq picks the
// lowest frequency satisfying the request), clamped to the table.
func (cl *cluster) snap(f units.Freq) units.Freq {
	for _, s := range cl.steps {
		if s >= f {
			return s
		}
	}
	return cl.steps[len(cl.steps)-1]
}

// stepToward moves one table step from the current frequency toward want.
func (cl *cluster) stepToward(want units.Freq) units.Freq {
	cur := cl.snap(cl.freq)
	idx := 0
	for i, s := range cl.steps {
		if s == cur {
			idx = i
			break
		}
	}
	target := cl.snap(want)
	switch {
	case target > cur && idx+1 < len(cl.steps):
		return cl.steps[idx+1]
	case target < cur && idx > 0:
		return cl.steps[idx-1]
	}
	return cur
}

// ----- public controls -----

// SetOnlineCores hot-(un)plugs cores so that exactly n remain online,
// keeping big-cluster cores first. n is clamped to [1, total].
func (c *CPU) SetOnlineCores(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(c.cores) {
		n = len(c.cores)
	}
	if n != c.online {
		if tr := c.cfg.Obs.Trace; tr != nil {
			tr.Instant("cpu", "hotplug", c.cfg.Obs.Pid, 0, c.s.Now(),
				trace.Arg{Key: "online", Val: float64(n)})
		}
		c.clearPowerMemo()
	}
	c.online = n
	for i, co := range c.cores {
		if on := i < n; on != co.online {
			co.online = on
			c.markDirty(co)
		}
	}
	// Migrate threads off offline cores.
	for _, co := range c.cores {
		if co.online {
			continue
		}
		for _, th := range co.threads {
			th.core = nil
		}
		orphans := co.threads
		co.threads = nil
		c.changed(co)
		for _, th := range orphans {
			c.place(th)
		}
	}
	c.reschedule()
}

// OnlineCores returns the number of online cores.
func (c *CPU) OnlineCores() int { return c.online }

// CoreBusy returns each core's accumulated busy time.
func (c *CPU) CoreBusy() []time.Duration {
	c.syncBusy()
	out := make([]time.Duration, len(c.cores))
	for i, co := range c.cores {
		out[i] = co.busyAccum
	}
	return out
}

// syncBusy accrues the busy time of every busy core up to now. Busy time is
// integer nanoseconds, so when it is brought up to date never changes it.
func (c *CPU) syncBusy() {
	now := c.s.Now()
	for _, co := range c.cores {
		if co.busy {
			co.busyAccum += now - co.busySince
			co.busySince = now
		}
	}
}

// ----- threads & scheduling -----

// NewThread creates an idle thread; name labels its trace lane. Foreground
// threads follow the device's big.LITTLE foreground placement policy;
// background threads fill the least loaded cores.
func (c *CPU) NewThread(name string, foreground bool) *Thread {
	t := &Thread{cpu: c, foreground: foreground, weight: 1}
	t.completeFn = func() { c.onCompletion(t) }
	if tr := c.cfg.Obs.Trace; tr != nil {
		t.tid = tr.Thread(c.cfg.Obs.Pid, "cpu:"+name)
	}
	c.threads = append(c.threads, t)
	return t
}

// newTask builds a task, reusing a recycled object when one is available.
func (c *CPU) newTask(name string, cycles float64, done func(), now time.Duration) *task {
	if n := len(c.taskFree); n > 0 {
		tk := c.taskFree[n-1]
		c.taskFree[n-1] = nil
		c.taskFree = c.taskFree[:n-1]
		*tk = task{name: name, remaining: cycles, cost: cycles,
			done: done, anchor: now, start: now}
		return tk
	}
	return &task{name: name, remaining: cycles, cost: cycles,
		done: done, anchor: now, start: now}
}

// Exec appends a task of the given reference-cycle cost to the thread's
// queue; done (may be nil) runs when the task completes. Zero-cycle tasks
// complete on the next event boundary. Queuing behind existing work changes
// no rate and no head task, so it leaves the schedule alone.
func (t *Thread) Exec(name string, cycles float64, done func()) {
	if cycles < 0 {
		panic("cpu: negative task cycles")
	}
	if math.IsInf(cycles, 1) || math.IsNaN(cycles) {
		panic(fmt.Sprintf("cpu: task cycles must be finite, got %v", cycles))
	}
	c := t.cpu
	t.queue = append(t.queue, c.newTask(name, cycles, done, c.s.Now()))
	if len(t.queue) > 1 {
		return
	}
	t.rearm = true
	c.place(t)
	c.reschedule()
}

// Idle reports whether the thread has no queued or running work.
func (t *Thread) Idle() bool { return len(t.queue) == 0 }

// QueueLen returns the number of queued (including running) tasks.
func (t *Thread) QueueLen() int { return len(t.queue) }

// Executed returns total cycles retired by this thread, including the
// running task's progress up to now. Reading it changes no state.
func (t *Thread) Executed() float64 {
	if len(t.queue) == 0 {
		return t.executed
	}
	return t.executed + t.progress(t.queue[0])
}

// progress returns the cycles the head task cur has retired since its anchor,
// at the thread's current rate, capped at what it had left.
func (t *Thread) progress(cur *task) float64 {
	work := t.rate * (t.cpu.s.Now() - cur.anchor).Seconds()
	if work > cur.remaining {
		work = cur.remaining
	}
	return work
}

// reanchor charges the head task's progress at the current rate and moves
// its anchor to now. It runs only when the rate or the head task is about
// to change, so a task's remaining work never depends on how often
// something else happened while it ran. The thread must have queued work.
func (t *Thread) reanchor() {
	cur := t.queue[0]
	work := t.progress(cur)
	cur.remaining -= work
	t.executed += work
	cur.anchor = t.cpu.s.Now()
}

func (c *CPU) clusterFor(foreground bool) *cluster {
	if len(c.clusters) == 1 {
		return c.clusters[0]
	}
	if foreground == c.cfg.ForegroundOnBig {
		return c.clusters[0]
	}
	return c.clusters[1]
}

// place assigns a runnable thread to an online core. Load is measured as
// the sum of scheduling weights already on the core, so normal threads avoid
// cores occupied by real-time work (which would starve them) and vice versa;
// the policy-preferred cluster gets a half-unit bonus.
func (c *CPU) place(t *Thread) {
	pref := c.clusterFor(t.foreground)
	var best *core
	bestLoad := 0.0
	for _, co := range c.cores {
		if !co.online {
			continue
		}
		load := co.load
		if co.cl == pref {
			load -= 0.5
		}
		if best == nil || load < bestLoad {
			best = co
			bestLoad = load
		}
	}
	if best == nil {
		panic("cpu: no online cores")
	}
	t.core = best
	best.threads = append(best.threads, t)
	c.changed(best)
}

// markDirty queues a core for re-planning at the next reschedule.
func (c *CPU) markDirty(co *core) {
	c.dirty |= 1 << co.id
}

// changed records that a core's thread list or a weight on it changed:
// its load is recomputed from the list, its crowded state is brought up to
// date, and it is queued for re-planning.
func (c *CPU) changed(co *core) {
	co.load = 0
	for _, th := range co.threads {
		co.load += th.weight
	}
	if crowded := len(co.threads) >= 2; crowded != co.crowded {
		co.crowded = crowded
		if crowded {
			c.crowded++
		} else {
			c.crowded--
		}
	}
	c.markDirty(co)
}

// reschedule re-plans the dirty cores: it rebalances idle cores when some
// core is crowded, recomputes the dirty cores' rates in core order, accrues
// busy time at busy/idle transitions, re-arms the completion event of every
// thread whose rate or head task changed, and refreshes the power meter. It
// returns at once when no core is dirty. Call after any state mutation, at
// the instant of the mutation.
func (c *CPU) reschedule() {
	if c.reference {
		for _, co := range c.cores {
			c.changed(co)
		}
	}
	if c.dirty == 0 {
		return
	}
	if c.crowded > 0 || c.reference {
		c.rebalance()
	}
	now := c.s.Now()
	dirty := c.dirty
	c.dirty = 0
	for ; dirty != 0; dirty &= dirty - 1 {
		co := c.cores[bits.TrailingZeros64(dirty)]
		busy := co.online && len(co.threads) > 0
		if busy != co.busy {
			if busy {
				co.busySince = now
			} else {
				co.busyAccum += now - co.busySince
			}
			co.busy = busy
			c.busyMask ^= 1 << co.id
		}
		// Two scheduling classes: real-time threads (weight >= RTWeightThreshold)
		// take their weighted share off the top with no multiplexing penalty;
		// normal threads split the remainder and pay the context-switch
		// overhead for their own multiplexing.
		wsum := co.load
		wNormal := 0.0
		nNormal := 0
		for _, th := range co.threads {
			if th.weight < RTWeightThreshold {
				wNormal += th.weight
				nNormal++
			}
		}
		cap := co.cl.freq.Hz() * co.cl.spec.IPC
		// A normal thread's rate is leftover·eff·weight/wNormal with
		// leftover = cap·wNormal/wsum; leftover·eff is hoisted out of the
		// loop and the rest still evaluates left to right, so every rate
		// keeps its bits.
		normal := cap * wNormal / wsum * c.switchEff(nNormal)
		for _, th := range co.threads {
			rate := 0.0
			if busy {
				if th.weight >= RTWeightThreshold {
					rate = cap * th.weight / wsum
				} else {
					rate = normal * th.weight / wNormal
				}
			}
			if rate == th.rate && !th.rearm {
				continue // the armed completion is still exact
			}
			if rate != th.rate {
				th.reanchor()
				th.rate = rate
			}
			th.rearm = false
			c.arm(th)
		}
	}
	c.updatePower()
}

// arm programs the thread's completion event for its head task's remaining
// work at its current rate; the head task must be anchored at now. Work
// that would not finish before the end of representable time is stalled,
// like work on a thread with no rate.
func (c *CPU) arm(th *Thread) {
	stalled := len(th.queue) == 0 || th.rate <= 0
	var d time.Duration
	if !stalled {
		d = units.DurationFor(th.queue[0].remaining, units.Freq(th.rate))
		stalled = d == math.MaxInt64 || d > math.MaxInt64-c.s.Now()
	}
	if stalled {
		// Idle, stalled until a core comes back, or never finishing at
		// this rate: disarm without discarding the event — the next
		// reprogramming reuses it.
		if th.completion != nil && th.completion.Queued() {
			c.s.Cancel(th.completion)
		}
		return
	}
	if th.completion == nil {
		th.completion = c.s.After(d, th.completeFn)
	} else {
		c.s.Reset(th.completion, c.s.Now()+d)
	}
}

// rebalance moves waiting threads from overloaded cores onto empty online
// cores, mimicking the load balancer waking an idle CPU.
func (c *CPU) rebalance() {
	for {
		var empty *core
		for _, co := range c.cores {
			if co.online && len(co.threads) == 0 {
				empty = co
				break
			}
		}
		if empty == nil {
			return
		}
		var donor *core
		for _, co := range c.cores {
			if !co.online || len(co.threads) < 2 {
				continue
			}
			if donor == nil || co.load > donor.load {
				donor = co
			}
		}
		if donor == nil {
			return
		}
		th := donor.threads[len(donor.threads)-1]
		donor.threads = donor.threads[:len(donor.threads)-1]
		th.core = empty
		empty.threads = append(empty.threads, th)
		c.changed(donor)
		c.changed(empty)
	}
}

func (c *CPU) onCompletion(th *Thread) {
	if len(th.queue) == 0 {
		return
	}
	th.reanchor()
	cur := th.queue[0]
	// Tolerate sub-nanosecond residue from duration rounding.
	if cur.remaining > th.rate*2e-9+1e-6 {
		th.rearm = true // woke early: wait out the residue
		c.markDirty(th.core)
		c.reschedule()
		return
	}
	th.executed += cur.remaining
	cur.remaining = 0
	// Pop the queue head in place so the backing array keeps its capacity
	// (the per-packet rx path would otherwise reallocate it constantly).
	n := copy(th.queue, th.queue[1:])
	th.queue[n] = nil
	th.queue = th.queue[:n]
	if n == 0 {
		c.detach(th)
	} else {
		th.queue[0].anchor = c.s.Now()
		th.queue[0].start = c.s.Now()
		th.rearm = true
		c.markDirty(th.core)
	}
	c.mTasks.Add(1)
	c.mTaskCycles.Observe(cur.cost)
	if tr := c.cfg.Obs.Trace; tr != nil {
		tr.Span("cpu", c.spanName(cur.name), c.cfg.Obs.Pid, th.tid, cur.start, c.s.Now(),
			trace.Arg{Key: "cycles", Val: cur.cost})
	}
	c.reschedule()
	if cur.done != nil {
		cur.done()
	}
	// The task object is dead once its done callback returned; recycle it.
	*cur = task{}
	c.taskFree = append(c.taskFree, cur)
}

// spanName returns the trace span name of a task, built once per task name:
// models reuse a handful of names for millions of tasks.
func (c *CPU) spanName(task string) string {
	name, ok := c.spanNames[task]
	if !ok {
		if c.spanNames == nil {
			c.spanNames = map[string]string{}
		}
		name = "task:" + task
		c.spanNames[task] = name
	}
	return name
}

func (c *CPU) detach(th *Thread) {
	co := th.core
	if co == nil {
		return
	}
	for i, x := range co.threads {
		if x == th {
			co.threads = append(co.threads[:i], co.threads[i+1:]...)
			break
		}
	}
	c.changed(co)
	th.core = nil
	th.rate = 0
}

// updatePower sends the CPU's total power to the meter when it changed.
func (c *CPU) updatePower() {
	if c.power == nil {
		return
	}
	var total float64
	if c.reference {
		total = c.sumPower()
	} else {
		total = c.powerMemo[c.busyMask]
		if total < 0 {
			total = c.sumPower()
			c.powerMemo[c.busyMask] = total
		}
	}
	if total != c.watts {
		c.watts = total
		c.power.SetPower(total)
	}
}

// sumPower adds up the CPU's power in core order: every online core's idle
// floor plus a busy core's dynamic power.
func (c *CPU) sumPower() float64 {
	total := 0.0
	for _, co := range c.cores {
		if !co.online {
			continue
		}
		total += energy.CoreIdleWatts
		if co.busy {
			total += co.cl.watts
		}
	}
	return total
}

// clearPowerMemo forgets every memoized power total; call it when a
// frequency or the online set changes.
func (c *CPU) clearPowerMemo() {
	for i := range c.powerMemo {
		c.powerMemo[i] = -1
	}
}
