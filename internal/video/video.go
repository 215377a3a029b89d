// Package video simulates the paper's video-streaming workload: a
// YouTube-like DASH player fetching a 5-minute FullHD clip over simulated
// TCP and playing it back through the device's hardware decoder.
//
// The model encodes the three mechanisms the paper credits for streaming's
// immunity to weak CPUs:
//
//  1. decoding happens on a fixed-function hardware decoder, so a slow clock
//     does not touch the decode path;
//  2. post-processing (container demux, buffer management) is parallelized
//     across worker threads, so extra cores absorb it; and
//  3. the player prefetches up to 120 s of content (read-ahead), so transient
//     slowness is hidden by the buffer.
//
// What cannot be prefetched is display: frames must be composited in real
// time. The renderer runs as a deadline-driven thread; when a single core
// must multiplex the renderer against demux workers and the network softirq,
// batches miss their deadlines and the player stalls — reproducing the
// paper's Fig. 4c (stalls appear only in the single-core configuration)
// while the clock sweep of Fig. 4a stays stall-free.
package video

import (
	"time"

	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/mem"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/obs"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/trace"
	"mobileqoe/internal/units"
)

// Rung is one ABR ladder entry.
type Rung struct {
	Name    string
	Bitrate units.BitRate
}

// Ladder is the YouTube-like ABR ladder (bitrates for H.264).
var Ladder = []Rung{
	{"240p", units.Kbps(700)},
	{"360p", units.Mbps(1)},
	{"480p", units.Mbps(2)},
	{"720p", units.Mbps(3)},
	{"1080p", units.Mbps(4.5)},
}

// Calibration constants (reference cycles; see DESIGN.md §4).
const (
	playerInitCycles   = 900e6  // app/UI startup + codec negotiation, serial on the main thread
	demuxCyclesPerByte = 1250.0 // container demux + buffer management, parallel
	renderCyclesPerSec = 280e6  // real-time composition per second of 1080p
	demuxWorkers       = 3
	manifestBytes      = 3 * units.KB
	// initSegmentLen is the short first media segment players request to cut
	// startup latency; the rest of the clip uses segmentLen.
	initSegmentLen     = 2 * time.Second
	segmentLen         = 5 * time.Second
	readAhead          = 120 * time.Second // prefetch window
	decoderInitDelay   = 150 * time.Millisecond
	decodeSegmentDelay = 120 * time.Millisecond // HW decoder pipeline latency
	// swDecodePenalty multiplies demux cycles when no hardware decoder
	// exists (none of the studied devices, but the ablation uses it).
	swDecodePenalty = 12.0
	renderBatch     = 500 * time.Millisecond
	appWorkingSet   = 400 * units.MB

	// Resilience parameters, active only under fault injection: a segment
	// fetch that has not completed within segmentDeadline (at least
	// minFetchDeadline) is aborted and refetched at a lower rung; failed
	// requests are retried after segmentRetryDelay.
	minFetchDeadline  = 4 * time.Second
	segmentRetryDelay = 250 * time.Millisecond
)

// Config wires the player to the simulated device.
type Config struct {
	Sim  *sim.Sim
	CPU  *cpu.CPU
	Net  *netsim.Network
	Mem  *mem.Memory // nil = no memory pressure
	Spec device.Spec // decides HW decoder presence and the device ABR cap

	// ForceSoftwareDecode disables the hardware decoder (ablation: what if
	// low-end phones did not ship one).
	ForceSoftwareDecode bool
	// DisablePrefetch caps the read-ahead at one segment (ablation: what
	// makes streaming different from telephony).
	DisablePrefetch bool

	// Obs bundles the observability/fault plane. Obs.Faults, when non-nil,
	// arms the player's resilience machinery: segment fetches get a watchdog
	// that aborts starved transfers and downswitches the ABR ladder instead
	// of stalling forever, and failed requests (injected server errors) are
	// retried; nil schedules no watchdog events, keeping the fault-free run
	// byte-identical. Obs.Trace, when non-nil, receives the startup span, a
	// playback-buffer counter track, and ABR/stall instants under category
	// "video", attributed to Obs.Pid. Obs.Metrics, when non-nil, accumulates
	// video.stalls, video.stall_seconds, and video.abr_switches.
	Obs obs.Ctx
}

// StreamConfig describes the clip and player policy.
type StreamConfig struct {
	Duration time.Duration // clip length; default 5 min
}

func (sc *StreamConfig) setDefaults() {
	if sc.Duration == 0 {
		sc.Duration = 5 * time.Minute
	}
}

// Metrics are the paper's two streaming QoE metrics and the rung served.
type Metrics struct {
	StartupLatency time.Duration // request to first displayed frame
	StallRatio     float64       // stall time / played time
	Rung           Rung          // resolution served
}

// Stream plays the clip and calls done with the metrics when the clip ends.
func Stream(cfg Config, sc StreamConfig, done func(Metrics)) {
	if cfg.Sim == nil || cfg.CPU == nil || cfg.Net == nil {
		panic("video: Sim, CPU and Net are required")
	}
	sc.setDefaults()
	p := &player{cfg: cfg, sc: sc, done: done, started: cfg.Sim.Now()}
	p.pickRung()
	p.factor = 1.0
	if cfg.Mem != nil {
		ws := appWorkingSet + 2*units.BitRate(p.rung.Bitrate).BytesIn(readAhead)
		p.factor = cfg.Mem.Slowdown(ws)
	}
	if cfg.Obs.Trace != nil {
		p.tid = cfg.Obs.Trace.Thread(cfg.Obs.Pid, "video:player")
	}
	p.main = cfg.CPU.NewThread("player-main", true)
	p.render = cfg.CPU.NewThread("player-render", true)
	p.render.SetWeight(8) // compositor runs at real-time priority
	for i := 0; i < demuxWorkers; i++ {
		p.workers = append(p.workers, cfg.CPU.NewThread("demux", false))
	}
	p.conn = cfg.Net.NewConn("video-cdn")
	p.start()
}

type player struct {
	cfg     Config
	sc      StreamConfig
	done    func(Metrics)
	started time.Duration
	factor  float64
	rung    Rung

	main    *cpu.Thread
	render  *cpu.Thread
	workers []*cpu.Thread
	conn    *netsim.Conn

	segments     int     // total segments in the clip
	nextFetch    int     // next segment index to request
	readySeconds float64 // demuxed+decoded content, in seconds
	playhead     float64 // seconds of content displayed
	fetching     bool
	fetchSeq     int // identifies the in-flight fetch for the watchdog
	decoderReady bool
	rungIdx      int     // current ladder index (ABR state)
	maxRungIdx   int     // cap from device policy
	ewmaMbps     float64 // throughput estimate

	startupAt  time.Duration
	stallTime  time.Duration
	playedTime time.Duration
	finished   bool
	tid        int // trace lane, 0 when tracing is off
}

// traceBuffer samples the playback buffer depth onto its counter track.
func (p *player) traceBuffer() {
	if tr := p.cfg.Obs.Trace; tr != nil {
		tr.Counter("video", "buffer_s", p.cfg.Obs.Pid, p.now(), p.bufferedAhead())
	}
}

// recordStall accounts one stall interval to the trace and metrics.
func (p *player) recordStall(d time.Duration) {
	p.stallTime += d
	p.cfg.Obs.Counter("video.stalls").Add(1)
	p.cfg.Obs.Counter("video.stall_seconds").Add(d.Seconds())
	if tr := p.cfg.Obs.Trace; tr != nil {
		tr.Instant("video", "stall", p.cfg.Obs.Pid, p.tid, p.now(),
			trace.Arg{Key: "seconds", Val: d.Seconds()})
	}
}

// pickRung applies the paper's device-specific ABR: YouTube does not serve
// FullHD to a low-end phone. The session then adapts downward (and back up)
// from this cap based on measured throughput, like a real DASH client.
func (p *player) pickRung() {
	max := len(Ladder) - 1
	// Device cap: weak cores or tight RAM get 480p.
	if p.cfg.Spec.Big.IPC > 0 && (p.cfg.Spec.Big.IPC < 0.7 || p.cfg.Spec.RAM <= 1*units.GB) {
		max = 2 // 480p
	}
	p.maxRungIdx = max
	p.rungIdx = max
	p.rung = Ladder[max]
}

// observeThroughput feeds the ABR's bandwidth estimator after a segment
// download and adapts the rung: step down when the estimate cannot sustain
// the current bitrate, step back up with ample headroom.
func (p *player) observeThroughput(bytes units.ByteSize, elapsed time.Duration) {
	if elapsed <= 0 {
		return
	}
	mbps := float64(bytes) * 8 / elapsed.Seconds() / 1e6
	if p.ewmaMbps == 0 {
		p.ewmaMbps = mbps
	} else {
		p.ewmaMbps = 0.7*p.ewmaMbps + 0.3*mbps
	}
	cur := Ladder[p.rungIdx].Bitrate.Mbpsf()
	prev := p.rungIdx
	switch {
	case p.ewmaMbps < cur*1.15 && p.rungIdx > 0:
		p.rungIdx--
	case p.rungIdx < p.maxRungIdx && p.ewmaMbps > Ladder[p.rungIdx+1].Bitrate.Mbpsf()*1.8:
		p.rungIdx++
	}
	p.rung = Ladder[p.rungIdx]
	if p.rungIdx != prev {
		p.cfg.Obs.Counter("video.abr_switches").Add(1)
		if tr := p.cfg.Obs.Trace; tr != nil {
			tr.Instant("video", "abr:"+p.rung.Name, p.cfg.Obs.Pid, p.tid, p.now(),
				trace.Arg{Key: "est_mbps", Val: p.ewmaMbps})
		}
	}
}

func (p *player) now() time.Duration { return p.cfg.Sim.Now() }

// segLen returns the duration of segment idx (the first one is short).
func (p *player) segLen(idx int) time.Duration {
	if idx == 0 {
		return initSegmentLen
	}
	return segmentLen
}

func (p *player) segBytes(idx int) units.ByteSize {
	return p.rung.Bitrate.BytesIn(p.segLen(idx))
}

func (p *player) start() {
	// A short init segment plus regular segments covering the clip.
	rest := p.sc.Duration - p.segLen(0)
	p.segments = 1 + int((rest+segmentLen-1)/segmentLen)
	// App/player initialization is serial CPU work, then the manifest fetch.
	p.main.Exec("player-init", playerInitCycles*p.factor, func() {
		p.fetchManifest()
	})
}

// fetchManifest requests the manifest, retrying after a short delay when an
// injected fault fails the request (a player cannot start without it). Fault
// windows are finite, so the retry loop always terminates.
func (p *player) fetchManifest() {
	p.conn.RequestE("manifest", 300, manifestBytes, 0, func(err error) {
		if err != nil {
			p.cfg.Sim.PostAfter(segmentRetryDelay, func() { p.fetchManifest() })
			return
		}
		p.cfg.Sim.PostAfter(decoderInitDelay, func() { p.decoderReady = true; p.maybeDisplay() })
		p.pump()
	})
}

// bufferedAhead returns seconds of ready content beyond the playhead.
func (p *player) bufferedAhead() float64 { return p.readySeconds - p.playhead }

// pump keeps segment downloads going until the read-ahead window is full.
func (p *player) pump() {
	if p.fetching || p.nextFetch >= p.segments {
		return
	}
	window := readAhead
	if p.cfg.DisablePrefetch {
		window = segmentLen
	}
	if p.bufferedAhead() >= window.Seconds() {
		return // buffer full; resume when playback drains it
	}
	p.fetching = true
	p.fetchSeq++
	seq := p.fetchSeq
	idx := p.nextFetch
	p.nextFetch++
	bytes := p.segBytes(idx)
	fetchStart := p.now()
	if p.cfg.Obs.Faults != nil {
		// Watchdog: a fetch starved by burst loss or a bandwidth dip is
		// abandoned and retried at a lower rung rather than stalling playback
		// for the rest of the clip. Armed only under fault injection so the
		// fault-free event sequence is untouched.
		deadline := 2 * p.segLen(idx)
		if deadline < minFetchDeadline {
			deadline = minFetchDeadline
		}
		p.cfg.Sim.PostAfter(deadline, func() { p.fetchWatchdog(seq, idx) })
	}
	p.conn.RequestE("segment", 400, bytes, 0, func(err error) {
		if seq != p.fetchSeq || !p.fetching {
			return // the watchdog already gave up on this fetch
		}
		p.fetching = false
		if err != nil {
			// Injected server error: refetch the same segment shortly.
			p.nextFetch = idx
			p.cfg.Sim.PostAfter(segmentRetryDelay, func() { p.pump() })
			return
		}
		p.observeThroughput(bytes, p.now()-fetchStart)
		p.demux(idx)
		p.pump()
	})
}

// fetchWatchdog fires when segment idx (fetch number seq) has been in flight
// past its deadline: the transfer is aborted, the ABR steps down a rung, the
// bandwidth estimate is halved, and the same segment is refetched at the
// cheaper bitrate.
func (p *player) fetchWatchdog(seq, idx int) {
	if seq != p.fetchSeq || !p.fetching || p.finished {
		return // the fetch completed (or was superseded) in time
	}
	p.conn.Abort()
	p.fetching = false
	p.nextFetch = idx
	p.ewmaMbps *= 0.5
	p.cfg.Obs.Counter("video.fetch_aborts").Add(1)
	if p.rungIdx > 0 {
		p.rungIdx--
		p.rung = Ladder[p.rungIdx]
		p.cfg.Obs.Counter("video.abr_switches").Add(1)
		if tr := p.cfg.Obs.Trace; tr != nil {
			tr.Instant("video", "abr:"+p.rung.Name, p.cfg.Obs.Pid, p.tid, p.now(),
				trace.Arg{Key: "watchdog", Val: 1})
		}
	}
	p.pump()
}

// demux fans the segment's post-processing out across the worker threads;
// when all chunks finish, the hardware decoder pipeline adds its fixed
// latency and the content becomes ready.
func (p *player) demux(idx int) {
	cycles := float64(p.segBytes(idx)) * demuxCyclesPerByte * p.factor
	if p.cfg.ForceSoftwareDecode || !p.cfg.Spec.Has(device.HWDecoder) {
		cycles *= swDecodePenalty
	}
	per := cycles / float64(len(p.workers))
	remaining := len(p.workers)
	for _, w := range p.workers {
		w.Exec("demux", per, func() {
			remaining--
			if remaining > 0 {
				return
			}
			p.cfg.Sim.PostAfter(decodeSegmentDelay, func() {
				p.readySeconds += p.segLen(idx).Seconds()
				if p.readySeconds > p.sc.Duration.Seconds() {
					p.readySeconds = p.sc.Duration.Seconds()
				}
				p.traceBuffer()
				p.maybeDisplay()
				p.pump()
			})
		})
	}
}

// maybeDisplay starts the display loop once the decoder is up and the first
// content is ready.
func (p *player) maybeDisplay() {
	if p.startupAt != 0 || !p.decoderReady || p.bufferedAhead() <= 0 {
		return
	}
	p.startupAt = p.now() // first frame hits the screen now
	if tr := p.cfg.Obs.Trace; tr != nil {
		tr.Span("video", "startup", p.cfg.Obs.Pid, p.tid, p.started, p.startupAt)
	}
	p.displayBatch()
}

// displayBatch renders the next batch of frames in real time. The batch
// must be composited while the previous one plays; any overrun is a stall.
// Buffer underrun (content not ready) is also a stall.
func (p *player) displayBatch() {
	if p.playhead >= p.sc.Duration.Seconds()-1e-9 {
		p.finish()
		return
	}
	batch := renderBatch.Seconds()
	if rem := p.sc.Duration.Seconds() - p.playhead; rem < batch {
		batch = rem
	}
	if p.bufferedAhead() < batch-1e-9 {
		// Underrun: wait for the next segment to become ready.
		waitStart := p.now()
		p.waitForBuffer(batch, func() {
			p.recordStall(p.now() - waitStart)
			p.renderAndPlay(batch)
		})
		return
	}
	p.renderAndPlay(batch)
}

// waitForBuffer polls readiness on segment completions.
func (p *player) waitForBuffer(batch float64, then func()) {
	if p.bufferedAhead() >= batch-1e-9 {
		then()
		return
	}
	p.cfg.Sim.PostAfter(50*time.Millisecond, func() { p.waitForBuffer(batch, then) })
}

func (p *player) renderAndPlay(batch float64) {
	t0 := p.now()
	scale := float64(p.rung.Bitrate) / float64(Ladder[len(Ladder)-1].Bitrate)
	// Composition works out of pinned graphics buffers, so the paging factor
	// does not apply to it.
	cycles := renderCyclesPerSec * batch * scale
	p.render.Exec("render", cycles, func() {
		renderTime := (p.now() - t0).Seconds()
		display := batch
		if renderTime > batch {
			// Missed the deadline: frames were repeated while compositing
			// lagged; the overrun is perceived as a stall.
			p.recordStall(time.Duration((renderTime - batch) * float64(time.Second)))
			display = renderTime
		}
		p.playhead += batch
		p.playedTime += time.Duration(batch * float64(time.Second))
		p.traceBuffer()
		p.pump()
		p.cfg.Sim.PostAfter(time.Duration((display-renderTime)*float64(time.Second)), func() {
			p.displayBatch()
		})
	})
}

func (p *player) finish() {
	if p.finished {
		return
	}
	p.finished = true
	m := Metrics{
		StartupLatency: p.startupAt - p.started,
		Rung:           p.rung,
	}
	if p.playedTime > 0 {
		m.StallRatio = float64(p.stallTime) / float64(p.playedTime)
	}
	if p.done != nil {
		p.done(m)
	}
}
