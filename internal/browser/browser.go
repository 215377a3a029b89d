// Package browser simulates a mobile browser loading a synthetic page the
// way Chrome 63 loads a real one: the document is fetched over simulated
// TCP, parsed segment by segment on a single main thread, synchronous
// scripts block the parser and wait for pending stylesheets, async scripts
// and images load in parallel, scripts can inject further resources, and a
// final layout and paint close the load. PLT is the load event, as measured
// by the paper.
//
// Architecture mirrors the paper's key observation about the web stack:
// parse/script/style/layout run on one foreground main thread, image
// decoding on one background thread, and packet processing on the network
// softirq thread — so a browser "uses no more than two cores" and its
// performance tracks the clock, not the core count.
//
// Every activity (fetch, parse, script, style, decode, layout, paint) is
// recorded with its dependencies, producing the WProf-style trace that
// internal/wprof turns into critical-path decompositions and emulated PLT
// (ePLT) re-evaluations.
package browser

import (
	"fmt"
	"time"

	"mobileqoe/internal/cpu"
	"mobileqoe/internal/fault"
	"mobileqoe/internal/mem"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/obs"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/units"
	"mobileqoe/internal/webpage"
)

// Compute cost calibration (reference cycles; see DESIGN.md §4).
const (
	ParseCyclesPerByte   = 2500.0 // HTML tokenization + DOM construction
	StyleCyclesPerByte   = 1000.0 // CSS parse + style resolution
	LayoutCyclesPerByte  = 800.0  // per HTML byte, a DOM-size proxy
	PaintCycles          = 5e7    // rasterize above-the-fold
	DecodeCyclesPerByte  = 350.0  // image decode on the raster thread
	CompileCyclesPerByte = 900.0  // JS parse + bytecode compile before execution
	ReflowFraction       = 0.3    // incremental layout after each blocking script
	requestHeaderBytes   = 420    // HTTP request size
	connsPerDomain       = 2
)

// Resilience parameters, active only under fault injection (Config.Faults):
// each resource fetch gets fetchAttempts tries, each bounded by fetchTimeout.
// A resource that exhausts its attempts is abandoned and the load degrades
// gracefully instead of wedging.
const (
	fetchAttempts = 3
	fetchTimeout  = 20 * time.Second
)

// ActivityKind labels a trace activity.
type ActivityKind string

// Activity kinds. Fetch is network; the rest are compute.
const (
	Fetch  ActivityKind = "fetch"
	Parse  ActivityKind = "parse"
	Script ActivityKind = "script"
	Style  ActivityKind = "style"
	Decode ActivityKind = "decode"
	Layout ActivityKind = "layout"
	Paint  ActivityKind = "paint"
)

// IsCompute reports whether the kind consumes CPU (vs network).
func (k ActivityKind) IsCompute() bool { return k != Fetch }

// Activity is one recorded unit of page-load work.
type Activity struct {
	ID    int
	Kind  ActivityKind
	Name  string
	Start time.Duration
	End   time.Duration
	Deps  []int // activity IDs that gated this activity's start
	// Cycles is the reference-cycle cost for compute activities (before the
	// memory slowdown factor); 0 for fetches.
	Cycles float64
	// Bytes is the transfer size for fetches.
	Bytes units.ByteSize
	// Profile is attached to script activities for offload re-evaluation.
	Profile *webpage.Profile
	// MainThread marks activities serialized on the browser main thread.
	MainThread bool
	// Failed marks an abandoned fetch (every attempt timed out or errored
	// under fault injection); Bytes is 0 and dependents never ran.
	Failed bool
}

// Duration returns End-Start.
func (a Activity) Duration() time.Duration { return a.End - a.Start }

// Result of a page load.
type Result struct {
	PLT        time.Duration // load event (paper's DOMLoad)
	Activities []Activity
	// StartedAt is the virtual time the load began (PLT is relative to it).
	StartedAt time.Duration
	// Degraded reports that the load completed without some of its
	// resources: fetches that kept failing under fault injection were
	// abandoned after bounded retries (or a memory kill forced a restart),
	// and PLT covers only what actually rendered.
	Degraded bool
	// FailedResources lists the webpage resource IDs whose fetches were
	// abandoned (-1 entries denote the document itself).
	FailedResources []int
	// Restarts counts memory-pressure kills that forced the load to start
	// over from the document fetch.
	Restarts int
}

// Config wires a browser to its device substrates.
type Config struct {
	Sim *sim.Sim
	CPU *cpu.CPU
	Net *netsim.Network
	Mem *mem.Memory // nil = no memory pressure
	// Engine selects the browser implementation profile; the zero value is
	// Chrome 63, the paper's measurement browser.
	Engine Engine
	// Obs bundles the observability/fault plane. Obs.Faults, when non-nil,
	// arms the browser's resilience machinery: fetch timeouts and bounded
	// retries, graceful degradation on abandoned resources, and a full
	// restart on an injected memory-pressure kill. Nil (the fault-free
	// default) schedules no timeout events at all, so the load is
	// byte-identical to a build without fault injection.
	Obs obs.Ctx
}

// Load starts loading page and calls done with the result when the load
// event fires. It returns immediately; run the simulator to completion.
func Load(cfg Config, page *webpage.Page, done func(Result)) {
	if cfg.Sim == nil || cfg.CPU == nil || cfg.Net == nil {
		panic("browser: Sim, CPU and Net are required")
	}
	l := &loader{
		cfg:     cfg,
		page:    page,
		done:    done,
		started: cfg.Sim.Now(),
		factor:  1.0,
		engine:  cfg.Engine.orDefault(),
		conns:   map[string][]*netsim.Conn{},
		// A load records a fetch and usually a compute activity per
		// resource plus the document's own work: 2.2 to 2.9 per resource
		// on the Top50 pages, so the log rarely grows.
		acts:   make([]Activity, 0, 3*len(page.Resources)+16),
		main:   cfg.CPU.NewThread("browser-main", true),
		raster: cfg.CPU.NewThread("browser-raster", false),
	}
	if cfg.Mem != nil {
		l.factor = cfg.Mem.Slowdown(page.WorkingSet())
	}
	if cfg.Obs.Faults != nil {
		cfg.Obs.Faults.OnFault(fault.MemKill, l.memKill)
	}
	l.start()
}

type loader struct {
	cfg     Config
	page    *webpage.Page
	done    func(Result)
	started time.Duration
	factor  float64
	engine  Engine

	main   *cpu.Thread
	raster *cpu.Thread
	conns  map[string][]*netsim.Conn
	rr     map[string]int

	acts        []Activity
	outstanding int
	cssPending  int
	cssWaiters  []func()
	parseDone   bool
	layoutDone  bool
	finished    bool

	// epoch is bumped by a memory-kill restart; callbacks capture the epoch
	// they were issued under and in-flight work from an earlier life of the
	// process is dropped on completion.
	epoch    int
	restarts int
	degraded bool
	failed   []int // resource IDs of abandoned fetches
}

// memKill handles an injected memory-pressure kill: the OS killed the
// renderer mid-load, so all in-progress work is dropped and the load starts
// over (recorded activities survive — they model what the first life of the
// process did on screen before dying).
func (l *loader) memKill() {
	if l.finished {
		return
	}
	l.epoch++
	l.restarts++
	l.degraded = true
	for _, pool := range l.conns {
		for _, c := range pool {
			c.Abort()
		}
	}
	l.conns = map[string][]*netsim.Conn{}
	l.rr = nil
	l.outstanding = 0
	l.cssPending = 0
	l.cssWaiters = nil
	l.parseDone = false
	l.layoutDone = false
	l.start()
}

// record appends a completed activity and returns its ID.
func (l *loader) record(a Activity) int {
	a.ID = len(l.acts)
	l.acts = append(l.acts, a)
	return a.ID
}

func (l *loader) now() time.Duration { return l.cfg.Sim.Now() }

// conn returns a connection to the domain, round-robin over a small pool
// (a single multiplexed connection when the network speaks HTTP/2).
func (l *loader) conn(domain string) *netsim.Conn {
	pool := l.conns[domain]
	if pool == nil {
		per := connsPerDomain
		if l.cfg.Net.Config().HTTP2 {
			per = 1
		}
		for i := 0; i < per; i++ {
			pool = append(pool, l.cfg.Net.NewConn(domain))
		}
		l.conns[domain] = pool
		if l.rr == nil {
			l.rr = map[string]int{}
		}
	}
	i := l.rr[domain]
	l.rr[domain] = i + 1
	return pool[i%len(pool)]
}

// begin marks a unit of required work outstanding.
func (l *loader) begin() { l.outstanding++ }

// finishUnit marks one unit done and fires the load event when idle.
func (l *loader) finishUnit() {
	l.outstanding--
	if l.outstanding < 0 {
		panic("browser: outstanding underflow")
	}
	if l.outstanding == 0 && l.parseDone {
		if !l.layoutDone {
			l.layoutDone = true
			l.finalLayout()
			return
		}
		l.fireLoad()
	}
}

func (l *loader) fireLoad() {
	if l.finished {
		return
	}
	l.finished = true
	res := Result{
		PLT:             l.now() - l.started,
		Activities:      l.acts,
		StartedAt:       l.started,
		Degraded:        l.degraded,
		FailedResources: l.failed,
		Restarts:        l.restarts,
	}
	if l.done != nil {
		l.done(res)
	}
}

// fetch retrieves a resource and records the fetch activity; cb receives the
// activity ID, or -1 when every attempt failed and the resource was
// abandoned (possible only under fault injection — call sites degrade
// gracefully instead of waiting forever).
func (l *loader) fetch(name, domain string, size units.ByteSize, resID int, deps []int, cb func(actID int)) {
	l.begin()
	start := l.now()
	size = units.ByteSize(float64(size) * l.engine.BytesScale)
	l.fetchAttempt(name, domain, size, resID, deps, start, 1, cb)
}

func (l *loader) fetchAttempt(name, domain string, size units.ByteSize, resID int,
	deps []int, start time.Duration, attempt int, cb func(actID int)) {
	ep := l.epoch
	fail := func() {
		if attempt < fetchAttempts {
			l.fetchAttempt(name, domain, size, resID, deps, start, attempt+1, cb)
			return
		}
		// Abandon the resource: record the failed fetch so the waterfall
		// shows the hole, flag the load degraded, and let dependents skip.
		l.degraded = true
		l.failed = append(l.failed, resID)
		l.record(Activity{
			Kind: Fetch, Name: name,
			Start: start, End: l.now(), Deps: deps, Failed: true,
		})
		cb(-1)
		l.finishUnit()
	}
	settled := false
	if l.cfg.Obs.Faults != nil {
		// Per-attempt watchdog: a transfer starved by faults is treated
		// as failed; a late completion after the timeout is ignored.
		l.cfg.Sim.PostAfter(fetchTimeout, func() {
			if settled || ep != l.epoch {
				return
			}
			settled = true
			fail()
		})
	}
	l.conn(domain).RequestE(name, requestHeaderBytes, size, 0, func(reqErr error) {
		if settled || ep != l.epoch {
			return
		}
		settled = true
		if reqErr != nil {
			fail()
			return
		}
		id := l.record(Activity{
			Kind: Fetch, Name: name,
			Start: start, End: l.now(), Deps: deps, Bytes: size,
		})
		cb(id)
		l.finishUnit()
	})
}

// exec runs a compute activity on a thread, applying the memory factor.
func (l *loader) exec(th *cpu.Thread, kind ActivityKind, name string, cycles float64,
	deps []int, profile *webpage.Profile, cb func(actID int)) {
	cycles *= l.engineScale(kind)
	l.begin()
	start := l.now()
	ep := l.epoch
	th.Exec(name, cycles*l.factor, func() {
		if ep != l.epoch {
			return // queued work from before a memory-kill restart
		}
		id := l.record(Activity{
			Kind: kind, Name: name,
			Start: start, End: l.now(), Deps: deps, Cycles: cycles,
			Profile: profile, MainThread: th == l.main,
		})
		cb(id)
		l.finishUnit()
	})
}

// engineScale maps an activity kind to the engine's cost multiplier. For
// proxy-rendered engines the client processes the *recompressed* content,
// so byte-proportional work additionally shrinks by BytesScale.
func (l *loader) engineScale(kind ActivityKind) float64 {
	proxy := 1.0
	if l.engine.ProxyRendered {
		proxy = l.engine.BytesScale
	}
	switch kind {
	case Parse, Style:
		return l.engine.ParseScale * proxy
	case Script:
		return l.engine.ScriptScale
	case Layout, Paint:
		return l.engine.LayoutScale * proxy
	case Decode:
		return proxy
	}
	return 1
}

func (l *loader) start() {
	l.fetch("document", l.page.Name, l.page.HTMLSize, -1, nil, func(fetchID int) {
		if fetchID < 0 {
			// The document itself was abandoned: nothing renders, so there
			// is no closing layout/paint; the load "completes" degraded.
			l.parseDone = true
			l.layoutDone = true
			l.begin()
			l.finishUnit()
			return
		}
		l.parseSegment(0, fetchID)
	})
}

// parseSegment tokenizes segment idx of the document; gate is the activity
// that allowed parsing to (re)start (document fetch or last blocking script).
func (l *loader) parseSegment(idx int, gate int) {
	if idx >= len(l.page.Segments) {
		l.parseDone = true
		// The load may already be quiescent (tiny pages).
		l.begin()
		l.finishUnit()
		return
	}
	seg := l.page.Segments[idx]
	cycles := float64(seg.Bytes) * ParseCyclesPerByte
	l.exec(l.main, Parse, fmt.Sprintf("parse-seg%d", idx), cycles, []int{gate}, nil, func(parseID int) {
		l.discover(idx, parseID)
	})
}

// discover starts fetches for every resource the parser saw in segment idx,
// then continues parsing once the segment's blocking scripts have executed.
func (l *loader) discover(segIdx int, parseID int) {
	var blockers []func(next func(scriptID int))
	for i := range l.page.Resources {
		r := &l.page.Resources[i]
		if r.Segment != segIdx || r.InjectedBy >= 0 {
			continue
		}
		switch r.Type {
		case webpage.CSS:
			l.cssPending++
			l.fetchCSS(r, parseID)
		case webpage.Image:
			l.fetchImage(r, parseID)
		case webpage.JS:
			if r.Blocking {
				r := r
				blockers = append(blockers, func(next func(scriptID int)) {
					l.fetchScript(r, parseID, next)
				})
			} else {
				l.fetchScript(r, parseID, nil)
			}
		}
	}
	// Blocking scripts execute in document order, then parsing resumes,
	// gated on the last blocking script's execution (the WProf dependency).
	runBlockers(blockers, func(lastScriptID int) {
		gate := parseID
		if lastScriptID >= 0 {
			gate = lastScriptID
		}
		l.parseSegment(segIdx+1, gate)
	})
}

// runBlockers executes the blocking-script launch functions sequentially,
// threading each script's activity ID to the next step. A failed script
// (sid < 0 under fault injection) keeps the previous gate so parsing still
// resumes.
func runBlockers(blockers []func(next func(scriptID int)), done func(lastScriptID int)) {
	var step func(i, lastID int)
	step = func(i, lastID int) {
		if i >= len(blockers) {
			done(lastID)
			return
		}
		blockers[i](func(sid int) {
			if sid < 0 {
				sid = lastID
			}
			step(i+1, sid)
		})
	}
	step(0, -1)
}

// cssDone retires one pending stylesheet and releases scripts waiting on
// the CSSOM once none remain.
func (l *loader) cssDone() {
	l.cssPending--
	if l.cssPending == 0 {
		ws := l.cssWaiters
		l.cssWaiters = nil
		for _, w := range ws {
			w()
		}
	}
}

func (l *loader) fetchCSS(r *webpage.Resource, parseID int) {
	l.fetch(r.URL, r.Domain, r.Size, r.ID, []int{parseID}, func(fetchID int) {
		if fetchID < 0 {
			// Abandoned stylesheet: render without it, but unblock scripts
			// waiting on the CSSOM — a missing sheet must not wedge the load.
			l.cssDone()
			return
		}
		cycles := float64(r.Size) * StyleCyclesPerByte
		l.exec(l.main, Style, "style:"+r.URL, cycles, []int{fetchID}, nil, func(int) {
			l.cssDone()
		})
	})
}

func (l *loader) fetchImage(r *webpage.Resource, depID int) {
	l.fetch(r.URL, r.Domain, r.Size, r.ID, []int{depID}, func(fetchID int) {
		if fetchID < 0 {
			return // abandoned image: the page renders without it
		}
		cycles := float64(r.Size) * DecodeCyclesPerByte
		l.exec(l.raster, Decode, "decode:"+r.URL, cycles, []int{fetchID}, nil, func(int) {})
	})
}

// fetchScript downloads and executes a script; when next is non-nil the
// script is parser-blocking and next resumes parsing after execution,
// receiving the script's activity ID.
func (l *loader) fetchScript(r *webpage.Resource, parseID int, next func(scriptID int)) {
	l.fetch(r.URL, r.Domain, r.Size, r.ID, []int{parseID}, func(fetchID int) {
		if fetchID < 0 {
			// Abandoned script: its side effects (injected resources,
			// reflow) never happen; a parser-blocking one resumes parsing.
			if next != nil {
				next(-1)
			}
			return
		}
		run := func() {
			// JS source must be parsed and compiled on the main thread before
			// it executes.
			compileCycles := float64(r.Size) * CompileCyclesPerByte
			l.exec(l.main, Parse, "compile:"+r.URL, compileCycles, []int{fetchID}, nil, func(compileID int) {
				prof := r.Profile()
				l.exec(l.main, Script, "script:"+r.URL, prof.TotalCPUCycles(), []int{compileID}, prof, func(scriptID int) {
					l.injectFrom(r.ID, scriptID)
					if r.Blocking {
						// Scripts that touched the DOM force an incremental
						// reflow; it queues on the main thread.
						reflow := float64(l.page.HTMLSize) * LayoutCyclesPerByte * ReflowFraction
						l.exec(l.main, Layout, "reflow:"+r.URL, reflow, []int{scriptID}, nil, func(int) {})
					}
					if next != nil {
						next(scriptID)
					}
				})
			})
		}
		// Synchronous scripts wait for pending stylesheets (CSSOM).
		if next != nil && l.cssPending > 0 {
			l.cssWaiters = append(l.cssWaiters, run)
			return
		}
		run()
	})
}

// injectFrom starts fetches for resources dynamically inserted by a script.
func (l *loader) injectFrom(scriptResID, scriptActID int) {
	for i := range l.page.Resources {
		r := &l.page.Resources[i]
		if r.InjectedBy != scriptResID {
			continue
		}
		switch r.Type {
		case webpage.Image:
			l.fetchImage(r, scriptActID)
		case webpage.JS:
			l.fetchScript(r, scriptActID, nil)
		case webpage.CSS:
			l.cssPending++
			l.fetchCSS(r, scriptActID)
		}
	}
}

// finalLayout runs the closing layout and paint on the main thread.
func (l *loader) finalLayout() {
	layoutCycles := float64(l.page.HTMLSize) * LayoutCyclesPerByte
	deps := l.lastActIDs()
	l.exec(l.main, Layout, "layout", layoutCycles, deps, nil, func(layoutID int) {
		l.exec(l.main, Paint, "paint", PaintCycles, []int{layoutID}, nil, func(int) {})
	})
}

// lastActIDs returns the IDs of trailing activities the final layout waits
// on (everything recorded so far is complete by construction; the layout
// depends on the parse end and the last script/style).
func (l *loader) lastActIDs() []int {
	var deps []int
	for i := len(l.acts) - 1; i >= 0 && len(deps) < 3; i-- {
		k := l.acts[i].Kind
		if k == Parse || k == Script || k == Style {
			deps = append(deps, l.acts[i].ID)
		}
	}
	return deps
}
