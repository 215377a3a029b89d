// Package telephony simulates the paper's interactive video-call workload
// (Skype): a signaling-heavy call setup followed by a bidirectional
// real-time media pipeline.
//
// Telephony is the application the paper finds *linearly* hurt by slow
// clocks, for two modeled reasons:
//
//   - nothing can be prefetched — every frame must be captured, encoded
//     (hardware), packetized (CPU), sent, received, depacketized (CPU),
//     decoded (hardware), and displayed within its frame budget; when the
//     per-frame CPU work exceeds the budget, frames drop and the displayed
//     frame rate falls (30 → ~17 fps at 384 MHz); and
//   - call setup runs a long serial chain of signaling exchanges whose
//     processing (session negotiation, key exchange, NAT traversal) is pure
//     CPU, so setup delay grows directly with 1/frequency (≈5 s → ≈23 s).
//
// Skype's CPU-aggressive ABR is modeled too: when the displayed frame rate
// sags, the call steps down to a lower resolution, trading quality to claw
// back frames — but the resolution-independent part of packet processing
// keeps the low-clock frame rate below target, as the paper observes.
package telephony

import (
	"fmt"
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

// Resolution is one rung of the call-quality ladder.
type Resolution struct {
	Name  string
	Scale float64 // pixel-volume factor relative to 720p
}

// Ladder is the call-quality ladder, best first.
var Ladder = []Resolution{
	{"720p", 1.0},
	{"480p", 0.6},
	{"360p", 0.45},
	{"240p", 0.3},
}

// Calibration constants (reference cycles; see DESIGN.md §4).
const (
	// setupCycles is the serial CPU cost of the signaling chain (session
	// negotiation, crypto, NAT traversal) split across setupExchanges
	// network round trips. Calibrated to Fig. 5a: ≈5 s at 1512 MHz, ≈23 s
	// at 384 MHz.
	setupCycles    = 8.5e9
	setupExchanges = 6
	setupMsgBytes  = 2 * units.KB
	serverThink    = 30 * time.Millisecond

	// Per-frame CPU costs: a resolution-independent part (packet handling,
	// buffer management) plus a resolution-proportional part (copy, color
	// conversion, mux/demux).
	txFixedCycles = 10e6
	txScaleCycles = 5e6
	rxFixedCycles = 16e6
	rxScaleCycles = 8.6e6

	frameBytesAt720p = 4200 * units.Byte // ~1 Mbps at 30 fps
	encodeLatency    = 8 * time.Millisecond
	decodeLatency    = 6 * time.Millisecond
	// swCodecPenalty multiplies frame CPU costs without hardware codecs.
	swCodecPenalty = 10.0

	// Audio runs continuously beside video: one 20 ms frame at a time.
	audioFrameCycles   = 4e6
	audioFrameInterval = 20 * time.Millisecond

	targetFPS      = 30
	frameInterval  = time.Second / targetFPS
	dropQueueLimit = 5 // frames queued on a pipeline thread before dropping
	abrWindow      = 2 * time.Second
	appWorkingSet  = 350 * units.MB
)

// Config wires the call to the simulated device.
type Config struct {
	Sim  *sim.Sim
	CPU  *cpu.CPU
	Net  *netsim.Network
	Mem  *mem.Memory // nil = no memory pressure
	Spec device.Spec

	// ForceSoftwareCodec disables the hardware codec (ablation).
	ForceSoftwareCodec bool

	// Obs bundles the observability plane. Obs.Trace, when non-nil, receives
	// per-stage setup spans and frame-drop / ABR instants under category
	// "telephony", attributed to Obs.Pid. Obs.Metrics, when non-nil,
	// accumulates telephony.frames_displayed, telephony.frames_dropped, and
	// telephony.abr_downswitches.
	Obs obs.Ctx
}

// CallConfig describes the call.
type CallConfig struct {
	Duration time.Duration // media duration after setup; default 60 s
}

func (cc *CallConfig) setDefaults() {
	if cc.Duration == 0 {
		cc.Duration = 60 * time.Second
	}
}

// Metrics are the paper's telephony QoE metrics.
type Metrics struct {
	SetupDelay time.Duration // answer to first media flowing
	FrameRate  float64       // displayed frames per second
	Resolution Resolution    // final ABR rung
}

// Call places a call and reports metrics when it ends.
func Call(cfg Config, cc CallConfig, done func(Metrics)) {
	if cfg.Sim == nil || cfg.CPU == nil || cfg.Net == nil {
		panic("telephony: Sim, CPU and Net are required")
	}
	cc.setDefaults()
	c := &call{cfg: cfg, cc: cc, done: done, started: cfg.Sim.Now(), factor: 1}
	if cfg.Mem != nil {
		c.factor = cfg.Mem.Slowdown(appWorkingSet)
	}
	c.media = cfg.Spec.MediaScale()
	if cfg.Obs.Trace != nil {
		c.tid = cfg.Obs.Trace.Thread(cfg.Obs.Pid, "tele:call")
	}
	c.main = cfg.CPU.NewThread("call-main", true)
	c.tx = cfg.CPU.NewThread("call-tx", false)
	c.rx = cfg.CPU.NewThread("call-rx", false)
	c.audio = cfg.CPU.NewThread("call-audio", false)
	c.conn = cfg.Net.NewConn("signaling")
	c.setup(0)
}

type call struct {
	cfg     Config
	cc      CallConfig
	done    func(Metrics)
	started time.Duration
	factor  float64

	main, tx, rx, audio *cpu.Thread
	conn                *netsim.Conn

	rung       int
	media      float64 // device media-pipeline scale
	setupDelay time.Duration
	mediaEnd   time.Duration

	displayed       int
	windowDisplayed int
	finished        bool
	tid             int // trace lane, 0 when tracing is off
}

// recordDrop accounts one dropped frame on the named pipeline stage.
func (c *call) recordDrop(stage string) {
	c.cfg.Obs.Counter("telephony.frames_dropped").Add(1)
	if tr := c.cfg.Obs.Trace; tr != nil {
		tr.Instant("telephony", "frame-drop:"+stage, c.cfg.Obs.Pid, c.tid, c.now())
	}
}

func (c *call) now() time.Duration { return c.cfg.Sim.Now() }

// setup runs the serial signaling chain: compute, then a network exchange,
// then the next stage.
func (c *call) setup(stage int) {
	if stage >= setupExchanges {
		c.setupDelay = c.now() - c.started
		if tr := c.cfg.Obs.Trace; tr != nil {
			tr.Span("telephony", "setup", c.cfg.Obs.Pid, c.tid, c.started, c.now())
		}
		c.startMedia()
		return
	}
	per := setupCycles / setupExchanges * c.factor
	stageStart := c.now()
	c.main.Exec("signaling", per, func() {
		c.conn.Request("exchange", setupMsgBytes, setupMsgBytes, serverThink, func() {
			if tr := c.cfg.Obs.Trace; tr != nil {
				tr.Instant("telephony", fmt.Sprintf("setup-stage:%d", stage),
					c.cfg.Obs.Pid, c.tid, c.now(),
					trace.Arg{Key: "seconds", Val: (c.now() - stageStart).Seconds()})
			}
			c.setup(stage + 1)
		})
	})
}

func (c *call) res() Resolution { return Ladder[c.rung] }

func (c *call) startMedia() {
	c.mediaEnd = c.now() + c.cc.Duration
	c.captureLoop()
	c.peerLoop()
	c.audioLoop()
	c.abrLoop()
}

// audioLoop models the always-on voice path: capture, encode, jitter-buffer
// and playout of one audio frame every 20 ms.
func (c *call) audioLoop() {
	if c.now() >= c.mediaEnd {
		return
	}
	c.cfg.Sim.PostAfter(audioFrameInterval, func() { c.audioLoop() })
	if c.audio.QueueLen() < dropQueueLimit {
		c.audio.Exec("audio", audioFrameCycles*c.factor, nil)
	}
}

// captureLoop runs the send pipeline at the camera's frame cadence.
func (c *call) captureLoop() {
	if c.now() >= c.mediaEnd {
		c.finish()
		return
	}
	c.cfg.Sim.PostAfter(frameInterval, func() { c.captureLoop() })
	if c.tx.QueueLen() >= dropQueueLimit {
		c.recordDrop("tx")
		return // encoder back-pressure: skip this capture
	}
	scale := c.res().Scale
	cycles := (txFixedCycles + txScaleCycles*scale) * c.factor * c.media
	if c.ForceSW() {
		cycles *= swCodecPenalty
	}
	c.cfg.Sim.PostAfter(encodeLatency, func() { // hardware encode
		c.tx.Exec("packetize", cycles, func() {
			size := units.ByteSize(float64(frameBytesAt720p) * scale)
			c.cfg.Net.SendDatagram(size, nil)
		})
	})
}

// ForceSW reports whether frame CPU costs carry the software-codec penalty.
func (c *call) ForceSW() bool {
	return c.cfg.ForceSoftwareCodec || !c.cfg.Spec.Has(device.HWDecoder)
}

// peerLoop injects the remote participant's frames at the target cadence.
func (c *call) peerLoop() {
	if c.now() >= c.mediaEnd {
		return
	}
	c.cfg.Sim.PostAfter(frameInterval, func() { c.peerLoop() })
	scale := c.res().Scale
	size := units.ByteSize(float64(frameBytesAt720p) * scale)
	c.cfg.Net.RecvDatagram(size, func() {
		if c.rx.QueueLen() >= dropQueueLimit {
			c.recordDrop("rx")
			return // receive queue overflow: late frame discarded
		}
		cycles := (rxFixedCycles + rxScaleCycles*scale) * c.factor * c.media
		if c.ForceSW() {
			cycles *= swCodecPenalty
		}
		c.rx.Exec("depacketize", cycles, func() {
			c.cfg.Sim.PostAfter(decodeLatency, func() { // hardware decode
				if c.now() < c.mediaEnd+decodeLatency+time.Second {
					c.displayed++
					c.windowDisplayed++
					c.cfg.Obs.Counter("telephony.frames_displayed").Add(1)
				}
			})
		})
	})
}

// abrLoop is Skype's CPU-aggressive bitrate adaptation: when the displayed
// frame rate sags below 80% of target, the call steps down a rung.
func (c *call) abrLoop() {
	if c.now() >= c.mediaEnd {
		return
	}
	c.cfg.Sim.PostAfter(abrWindow, func() {
		fps := float64(c.windowDisplayed) / abrWindow.Seconds()
		c.windowDisplayed = 0
		if fps < 0.8*targetFPS && c.rung < len(Ladder)-1 {
			c.rung++
			c.cfg.Obs.Counter("telephony.abr_downswitches").Add(1)
			if tr := c.cfg.Obs.Trace; tr != nil {
				tr.Instant("telephony", "abr:"+c.res().Name, c.cfg.Obs.Pid, c.tid, c.now(),
					trace.Arg{Key: "fps", Val: fps})
			}
		}
		c.abrLoop()
	})
}

func (c *call) finish() {
	if c.finished {
		return
	}
	c.finished = true
	// Let in-flight frames drain briefly before reporting.
	c.cfg.Sim.PostAfter(200*time.Millisecond, func() {
		m := Metrics{
			SetupDelay: c.setupDelay,
			FrameRate:  float64(c.displayed) / c.cc.Duration.Seconds(),
			Resolution: c.res(),
		}
		if c.done != nil {
			c.done(m)
		}
	})
}
