// Package netsim simulates the paper's LAN testbed: an access point with a
// 72 Mbps link, 10 ms RTT and 0% loss, carrying TCP connections between a
// fast desktop server and the phone under test.
//
// The defining feature — and the mechanism behind the paper's Fig. 6 — is
// that every packet the phone receives or sends costs CPU cycles on a
// simulated softirq thread. TCP is self-clocked by ACKs, so when the clock
// frequency drops, packet processing lags, ACKs go out late, and measured
// throughput falls even though the radio link is unchanged. Setting
// Config.ChargeCPU to false removes the charge and is the ablation switch
// for that finding.
//
// The TCP model is packet-level: slow start, congestion avoidance, delayed
// ACKs, a shared FIFO bottleneck at the AP, and an optional Bernoulli loss
// process with halved-window recovery. Datagram (UDP-like) flows are
// provided for the telephony media path.
//
// Data segments, their delayed ACKs and datagrams ride pooled packets: a
// packet carries one of them through link delivery, the softirq charge and
// its handler with a single callback bound when the packet was first
// allocated, and returns to its Network's free list at its last stage. The
// per-packet path therefore allocates nothing once the pool is warm.
package netsim

import (
	"errors"
	"fmt"
	"time"

	"mobileqoe/internal/cpu"
	"mobileqoe/internal/fault"
	"mobileqoe/internal/obs"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/stats"
	"mobileqoe/internal/trace"
	"mobileqoe/internal/units"
)

// ErrServer is the error RequestE reports when an injected server-error
// fault replaces the response with a short error body.
var ErrServer = errors.New("netsim: server answered with an error response")

// Calibration constants for the per-packet CPU cost on the device side.
// They stand in for the full interrupt → driver → netfilter → TCP → socket
// wakeup path of the Android kernels under study; the values are chosen so
// an iperf run reproduces Fig. 6 (≈48 Mbps at 1512 MHz falling to ≈32 Mbps
// at 384 MHz on the Nexus4).
const (
	rxFixedCycles   = 36000 // per received data segment
	rxPerByteCycles = 65.0  // copy/checksum cost per payload byte
	txFixedCycles   = 17000 // per transmitted segment (incl. ACKs)
	txPerByteCycles = 20.0
)

// mss is the TCP segment payload.
const mss units.ByteSize = 1460

// Config describes the testbed network.
type Config struct {
	Rate units.BitRate // radio PHY rate (the paper's 72 Mbps)
	RTT  time.Duration // base round-trip time (10 ms)
	Loss float64       // Bernoulli segment loss probability (paper: 0)

	// MACEfficiency is the PHY-to-goodput ratio of the WiFi link (contention,
	// preambles, MAC ACKs). The default 0.67 turns a 72 Mbps PHY into the
	// ≈48 Mbps TCP ceiling the paper measures at full clock.
	MACEfficiency float64

	// ChargeCPU controls whether device-side packet processing costs CPU
	// cycles (true reproduces the paper; false is the ablation).
	ChargeCPU bool

	// TLS adds a TLS-1.2-style handshake to every connection and symmetric
	// record processing to every received segment (the paper's §6
	// future-work extension; see tls.go).
	TLS bool

	// HTTP2 multiplexes concurrent requests as streams over one connection
	// (header compression included), instead of HTTP/1.1's one-at-a-time
	// delivery per connection. Chrome 63 negotiated h2 with most origins;
	// the protocol is one of the paper's "software parameter" axes.
	HTTP2 bool

	// Obs bundles the observability/fault plane. Obs.Faults, when non-nil,
	// is the fault-injection plane (internal/fault): the network consults it
	// per segment for burst loss, per delivery for RTT spikes and bandwidth
	// dips, and per request for connection resets and server
	// slowness/errors; nil disables injection and keeps the fault-free path
	// byte-identical. Obs.Trace, when non-nil, receives per-transfer spans
	// (one lane per connection), a cwnd counter track, and loss instants
	// under category "netsim", attributed to Obs.Pid. Obs.Metrics, when
	// non-nil, accumulates netsim.segments, netsim.acks, and
	// netsim.cwnd_resets (plus netsim.retransmits and netsim.conn_resets
	// under fault injection).
	Obs obs.Ctx
}

// Validate reports a descriptive error for configurations that would
// produce a nonsensical simulation. It checks fully specified configs: the
// zero values New's defaulting fills in (rate, RTT, efficiency) are
// rejected here because an explicit zero is almost always a bug in the
// caller's arithmetic, not a request for the default.
func (c Config) Validate() error {
	if c.Rate < 0 {
		return fmt.Errorf("netsim: negative Rate %v", c.Rate)
	}
	if c.RTT < 0 {
		return fmt.Errorf("netsim: negative RTT %v", c.RTT)
	}
	if c.Loss < 0 {
		return fmt.Errorf("netsim: negative Loss %g", c.Loss)
	}
	if c.Loss >= 1 {
		return fmt.Errorf("netsim: Loss %g must be < 1 (a link losing every segment transfers nothing)", c.Loss)
	}
	if c.MACEfficiency < 0 || c.MACEfficiency > 1 {
		return fmt.Errorf("netsim: MACEfficiency %g outside [0,1]", c.MACEfficiency)
	}
	return nil
}

func (c *Config) setDefaults() {
	if c.Rate == 0 {
		c.Rate = units.Mbps(72)
	}
	if c.RTT == 0 {
		c.RTT = 10 * time.Millisecond
	}
	if c.MACEfficiency == 0 {
		c.MACEfficiency = 0.67
	}
}

// Network is one device's view of the testbed.
type Network struct {
	s       *sim.Sim
	cfg     Config
	softirq *cpu.Thread
	down    *link      // AP -> device
	up      *link      // device -> AP
	rng     *stats.RNG // Bernoulli loss draws
	// delivered counts payload bytes delivered to the device, segments and
	// datagrams alike; iperf reads its goodput from it.
	delivered int64

	// free is the packet free list; packets counts the packets ever
	// allocated, all of which are on the list when nothing is in flight.
	free    *packet
	packets int

	// Metrics handles, resolved once in New; nil-safe when metrics are off.
	mSegments    *trace.Counter
	mAcks        *trace.Counter
	mCwndResets  *trace.Counter
	mRetransmits *trace.Counter
	mConnResets  *trace.Counter
}

// New builds a network attached to the given device CPU. The softirq thread
// is created as a background thread so that big.LITTLE policies place it
// like Android does. It panics on a config Validate rejects.
func New(s *sim.Sim, c *cpu.CPU, cfg Config) *Network {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		panic("netsim: invalid config: " + err.Error())
	}
	n := &Network{s: s, cfg: cfg, rng: stats.NewRNG(0xC0FFEE)}
	eff := units.BitRate(float64(cfg.Rate) * cfg.MACEfficiency)
	n.down = &link{s: s, lane: s.NewFIFO(), rate: eff, oneWay: cfg.RTT / 2, inj: cfg.Obs.Faults}
	n.up = &link{s: s, lane: s.NewFIFO(), rate: eff, oneWay: cfg.RTT / 2, inj: cfg.Obs.Faults}
	if c != nil {
		n.softirq = c.NewThread("softirq", false)
	}
	n.mSegments = cfg.Obs.Counter("netsim.segments")
	n.mAcks = cfg.Obs.Counter("netsim.acks")
	n.mCwndResets = cfg.Obs.Counter("netsim.cwnd_resets")
	n.mRetransmits = cfg.Obs.Counter("netsim.retransmits")
	n.mConnResets = cfg.Obs.Counter("netsim.conn_resets")
	return n
}

// segmentLost samples both loss processes for one segment: the configured
// Bernoulli channel and any active injected burst-loss window.
func (n *Network) segmentLost() bool {
	if n.cfg.Loss > 0 && n.rng.Float64() < n.cfg.Loss {
		return true
	}
	return n.cfg.Obs.Faults.SegmentLost()
}

// Config returns the effective configuration.
func (n *Network) Config() Config { return n.cfg }

// rxCharge runs fn after charging the device CPU for receiving a segment of
// the given payload size.
func (n *Network) rxCharge(payload units.ByteSize, fn func()) {
	if !n.cfg.ChargeCPU || n.softirq == nil {
		fn()
		return
	}
	cycles := rxFixedCycles + rxPerByteCycles*float64(payload) + n.tlsRecordCycles(payload)
	n.softirq.Exec("rx", cycles, fn)
}

// txCharge runs fn after charging the device CPU for building and sending a
// segment.
func (n *Network) txCharge(payload units.ByteSize, fn func()) {
	if !n.cfg.ChargeCPU || n.softirq == nil {
		fn()
		return
	}
	cycles := txFixedCycles + txPerByteCycles*float64(payload)
	n.softirq.Exec("tx", cycles, fn)
}

// link is a half-duplex FIFO pipe: serialization at the bottleneck rate,
// then fixed propagation. Its deliveries leave in time order, so they ride
// one kernel lane instead of each taking a slot in the event heap.
type link struct {
	s         *sim.Sim
	lane      *sim.FIFO
	rate      units.BitRate
	oneWay    time.Duration
	busyUntil time.Duration
	inj       *fault.Injector // nil when fault injection is off
}

// headerBytes approximates TCP/IP/MAC framing per segment.
const headerBytes = 66 * units.Byte

func (l *link) deliver(payload units.ByteSize, fn func()) {
	now := l.s.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	rate := l.rate
	if f := l.inj.RateFactor(); f < 1 {
		// Injected bandwidth dip: the packet serializes at the dipped rate.
		rate = units.BitRate(float64(rate) * f)
	}
	ser := rate.TimeToSend(payload + headerBytes)
	l.busyUntil = start + ser
	// An injected RTT spike stretches propagation; half per direction. When
	// a spike ends mid-flight the delivery overtakes the lane's tail, and
	// the lane hands it to the heap.
	l.lane.Post(l.busyUntil+l.oneWay+l.inj.ExtraRTT()/2, fn)
}

// ----- TCP connections -----

// TCP parameters (Linux-ish defaults, simplified).
const (
	initCwnd     = 10
	initSsthresh = 64
	maxCwnd      = 512
	ackEvery     = 2
)

// Conn is a TCP connection between the device and the LAN server. HTTP-style
// usage: Connect once (or let the first Request connect implicitly), then
// issue Requests. Under HTTP/1.1 (the default) at most one transfer is
// active at a time; with Config.HTTP2 concurrent requests multiplex as
// streams sharing the connection's congestion window.
type Conn struct {
	net      *Network
	name     string
	tid      int // trace lane, 0 when tracing is off
	lastCwnd int // last integer cwnd sampled onto the counter track

	established  bool
	connecting   bool
	cwnd         float64 // segments
	ssthresh     float64
	inflight     int
	acksSinceACK int
	rr           int // round-robin cursor over active streams

	// gen is the connection generation, bumped by an injected reset; in-flight
	// delivery callbacks from an earlier generation are dropped on arrival.
	gen int
	// retx counts consecutive retransmissions since the last delivered
	// segment; the RTO backs off exponentially with it.
	retx int
	// resets counts injected connection resets, for the reconnect backoff.
	resets int

	actives []*transfer
	pending []*transfer
	waiters []func() // callbacks waiting for connection establishment
}

// maxStreams is the concurrent-transfer limit: 1 for HTTP/1.1, h2-like 8
// otherwise.
func (c *Conn) maxStreams() int {
	if c.net.cfg.HTTP2 {
		return 8
	}
	return 1
}

type transfer struct {
	name      string
	upBytes   units.ByteSize // request payload (device -> server)
	think     time.Duration  // server processing before the response
	downBytes units.ByteSize // response payload (server -> device)
	remaining units.ByteSize // response bytes not yet handed to the app
	unsent    units.ByteSize // response bytes the server has not yet sent
	started   time.Duration
	serving   bool // the server has the request and is streaming the response
	failed    bool // an injected server error replaced the response
	done      func()
	doneErr   func(error) // set by RequestE; reports injected server errors
}

// errorBodyBytes is the short 5xx body an injected server error returns in
// place of the real response.
const errorBodyBytes = 512 * units.Byte

// NewConn creates an idle connection.
func (n *Network) NewConn(name string) *Conn {
	c := &Conn{net: n, name: name}
	if tr := n.cfg.Obs.Trace; tr != nil {
		c.tid = tr.Thread(n.cfg.Obs.Pid, "net:"+name)
	}
	return c
}

// traceCwnd samples the connection's congestion window onto its counter
// track whenever the integer value changes.
func (c *Conn) traceCwnd() {
	tr := c.net.cfg.Obs.Trace
	if tr == nil {
		return
	}
	if w := int(c.cwnd); w != c.lastCwnd {
		c.lastCwnd = w
		tr.Counter("netsim", "cwnd:"+c.name, c.net.cfg.Obs.Pid, c.net.s.Now(), float64(w))
	}
}

// Connect performs the three-way handshake; fn runs once the connection is
// established. Calling Connect on an established connection invokes fn
// immediately; concurrent connects coalesce.
func (c *Conn) Connect(fn func()) {
	if c.established {
		if fn != nil {
			fn()
		}
		return
	}
	if fn != nil {
		c.waiters = append(c.waiters, fn)
	}
	if c.connecting {
		return
	}
	c.connecting = true
	n := c.net
	// SYN out (device CPU builds it), SYN-ACK back, ACK processing.
	n.txCharge(0, func() {
		n.up.deliver(0, func() {
			n.down.deliver(0, func() {
				n.rxCharge(0, func() {
					finish := func() {
						c.established = true
						c.connecting = false
						c.cwnd = initCwnd
						c.ssthresh = initSsthresh
						ws := c.waiters
						c.waiters = nil
						for _, w := range ws {
							w()
						}
					}
					if n.cfg.TLS {
						c.tlsHandshake(finish)
						return
					}
					finish()
				})
			})
		})
	})
}

// Request issues an HTTP-like exchange: upload upBytes, wait think at the
// server, then download downBytes. done runs when the full response has been
// delivered to the application.
func (c *Conn) Request(name string, upBytes, downBytes units.ByteSize, think time.Duration, done func()) {
	t := &transfer{name: name, upBytes: upBytes, downBytes: downBytes,
		remaining: downBytes, unsent: downBytes, think: think, done: done}
	c.enqueue(t)
}

// RequestE is Request with an error-aware completion callback: done receives
// ErrServer when an injected server-error fault replaced the response with a
// short error body (the bytes of that error body were still delivered).
// Without fault injection done always receives nil.
func (c *Conn) RequestE(name string, upBytes, downBytes units.ByteSize, think time.Duration, done func(error)) {
	t := &transfer{name: name, upBytes: upBytes, downBytes: downBytes,
		remaining: downBytes, unsent: downBytes, think: think, doneErr: done}
	c.enqueue(t)
}

func (c *Conn) enqueue(t *transfer) {
	c.pending = append(c.pending, t)
	c.Connect(func() { c.startNext() })
}

func (c *Conn) startNext() {
	for c.established && len(c.actives) < c.maxStreams() && len(c.pending) > 0 {
		t := c.pending[0]
		c.pending = c.pending[1:]
		c.actives = append(c.actives, t)
		t.started = c.net.s.Now()
		c.sendRequest(t)
	}
}

func (c *Conn) sendRequest(t *transfer) {
	n := c.net
	if n.cfg.Obs.Faults.ConnResets() {
		// Injected RST as the request goes out: drop the connection and
		// replay every active stream after a reconnect (connection-level
		// retry with exponential backoff).
		c.reset()
		return
	}
	up := t.upBytes
	if n.cfg.HTTP2 {
		// HPACK-style header compression.
		up = units.ByteSize(float64(up) * 0.3)
	}
	gen := c.gen
	// Upload the request (single logical burst; request bodies in the paper's
	// workloads are small).
	n.txCharge(up, func() {
		n.up.deliver(up, func() {
			n.s.PostAfter(t.think+n.cfg.Obs.Faults.ServerDelay(), func() {
				if gen != c.gen {
					return // connection was reset; the request will be replayed
				}
				if t.downBytes == 0 {
					c.finish(t)
					return
				}
				if n.cfg.Obs.Faults.ServerErrors() {
					// The origin answers with a short error body instead of
					// the payload; the client sees a fast, failed response.
					t.failed = true
					body := min(errorBodyBytes, t.downBytes)
					t.remaining, t.unsent = body, body
				}
				t.serving = true
				c.pump()
			})
		})
	})
}

// reset models an injected connection reset: every active stream is requeued
// from the start, the congestion state drops, and the device reconnects
// after an exponentially backed-off pause before replaying them.
func (c *Conn) reset() {
	n := c.net
	n.mConnResets.Add(1)
	if tr := n.cfg.Obs.Trace; tr != nil {
		tr.Instant("netsim", "conn-reset", n.cfg.Obs.Pid, c.tid, n.s.Now())
	}
	c.gen++
	for _, t := range c.actives {
		t.remaining, t.unsent, t.serving, t.failed = t.downBytes, t.downBytes, false, false
	}
	c.pending = append(c.actives, c.pending...)
	c.actives = nil
	c.inflight = 0
	c.acksSinceACK = 0
	c.retx = 0
	c.established = false
	c.connecting = false
	backoff := (n.cfg.RTT*2 + 10*time.Millisecond) << min(c.resets, 4)
	c.resets++
	n.s.PostAfter(backoff, func() {
		c.Connect(func() { c.startNext() })
	})
}

// pump has the server send as many segments as the congestion window
// allows, round-robining across active streams (h2 frame interleaving; with
// HTTP/1.1 there is at most one stream).
func (c *Conn) pump() {
	for c.inflight < int(c.cwnd) && c.inflight < maxCwnd {
		t := c.nextSendable()
		if t == nil {
			return
		}
		seg := mss
		if t.unsent < seg {
			seg = t.unsent
		}
		t.unsent -= seg
		c.inflight++
		c.sendSegment(t, seg)
	}
}

// nextSendable returns the next active stream with bytes left to send.
func (c *Conn) nextSendable() *transfer {
	for i := 0; i < len(c.actives); i++ {
		t := c.actives[(c.rr+i)%len(c.actives)]
		if t.serving && t.unsent > 0 {
			c.rr = (c.rr + i + 1) % len(c.actives)
			return t
		}
	}
	return nil
}

func (c *Conn) sendSegment(t *transfer, seg units.ByteSize) {
	n := c.net
	gen := c.gen
	if n.segmentLost() {
		// Lost in the air: recover after the RTO with a halved window. The
		// RTO backs off exponentially with consecutive retransmissions, so a
		// burst-loss window degrades throughput instead of melting the link
		// with a retransmission storm.
		if tr := n.cfg.Obs.Trace; tr != nil {
			tr.Instant("netsim", "tcp-loss", n.cfg.Obs.Pid, c.tid, n.s.Now())
		}
		rto := (n.cfg.RTT*2 + 10*time.Millisecond) << min(c.retx, 6)
		c.retx++
		n.mRetransmits.Add(1)
		n.s.PostAfter(rto, func() {
			if gen != c.gen {
				return // connection was reset; the stream will be replayed
			}
			c.ssthresh = c.cwnd / 2
			if c.ssthresh < 2 {
				c.ssthresh = 2
			}
			c.cwnd = c.ssthresh
			n.mCwndResets.Add(1)
			c.traceCwnd()
			c.sendSegment(t, seg) // retransmit
		})
		return
	}
	p := n.newPacket(inDown)
	p.c, p.t, p.seg, p.gen = c, t, seg, gen
	n.down.deliver(seg, p.fn)
}

// onSegment runs after the device CPU has processed the received segment p
// carries. When a delayed ACK is due p goes on to carry it; otherwise p is
// released.
func (c *Conn) onSegment(p *packet) {
	n, t, seg := c.net, p.t, p.seg
	n.delivered += int64(seg)
	n.mSegments.Add(1)
	c.retx = 0
	c.inflight--
	if c.cwnd < c.ssthresh {
		c.cwnd++ // slow start
	} else {
		c.cwnd += 1 / c.cwnd // congestion avoidance
	}
	if c.cwnd > maxCwnd {
		c.cwnd = maxCwnd
	}
	c.traceCwnd()
	// Delayed ACK: every other segment (or the last one) costs a tx.
	c.acksSinceACK++
	sendAck := c.acksSinceACK >= ackEvery || t.remaining <= seg
	if sendAck {
		c.acksSinceACK = 0
		n.mAcks.Add(1)
		p.stage, p.seg = inTx, 0
		n.txCharge(0, p.fn)
	}
	t.remaining -= seg
	if t.remaining <= 0 {
		c.finish(t)
	}
	if !sendAck {
		n.freePacket(p)
	}
}

func (c *Conn) finish(t *transfer) {
	for i, x := range c.actives {
		if x == t {
			c.actives = append(c.actives[:i], c.actives[i+1:]...)
			break
		}
	}
	if tr := c.net.cfg.Obs.Trace; tr != nil {
		tr.Span("netsim", "xfer:"+t.name, c.net.cfg.Obs.Pid, c.tid,
			t.started, c.net.s.Now(),
			trace.Arg{Key: "bytes", Val: float64(t.downBytes)})
	}
	c.resets = 0 // a completed transfer proves the path is healthy again
	switch {
	case t.doneErr != nil && t.failed:
		t.doneErr(ErrServer)
	case t.doneErr != nil:
		t.doneErr(nil)
	case t.done != nil:
		t.done()
	}
	c.startNext()
	c.pump()
}

// Abort drops the active and queued transfers without invoking their done
// callbacks. Segments already in flight are discarded on arrival (the
// generation bump below), so a connection can be reused immediately.
func (c *Conn) Abort() {
	c.gen++
	c.actives = nil
	c.pending = nil
	c.inflight = 0
	c.retx = 0
	c.acksSinceACK = 0
}

// ----- datagram flows (telephony media path) -----

// Datagram delivery state for interactive media: no retransmission, no
// congestion window; per-packet CPU charge still applies.

// SendDatagram pushes a packet from the device to the peer; fn (optional)
// runs when it reaches the peer.
func (n *Network) SendDatagram(payload units.ByteSize, fn func()) {
	p := n.newPacket(inTx)
	p.seg, p.app = payload, fn
	n.txCharge(payload, p.fn)
}

// RecvDatagram injects a packet from the peer; fn runs after the device CPU
// has processed it (this is where receive-side frame data becomes available
// to the application).
func (n *Network) RecvDatagram(payload units.ByteSize, fn func()) {
	if n.segmentLost() {
		return
	}
	p := n.newPacket(inDown)
	p.seg, p.app = payload, fn
	n.down.deliver(payload, p.fn)
}

// ----- packets -----

// stage is the leg of its trip a packet is on; step runs when it ends.
type stage uint8

const (
	inDown stage = iota // on the downlink (AP -> device)
	inRx                // in the device's softirq receive charge
	inTx                // in the device's softirq transmit charge
	inUp                // on the uplink (device -> AP)
)

// packet carries one data segment down and then its delayed ACK up, or one
// datagram either way. fn is p.step, bound once when the packet is first
// allocated; every leg hands that same callback to the link lane or the
// softirq thread, so no leg allocates.
type packet struct {
	n     *Network
	c     *Conn     // the segment's connection; nil for a datagram
	t     *transfer // the segment's stream
	seg   units.ByteSize
	gen   int // c.gen when the segment was sent
	stage stage
	fn    func()  // p.step
	app   func()  // the datagram's delivery callback (may be nil)
	next  *packet // free-list link
}

// newPacket takes a packet off the free list, or allocates one, and sets
// its first leg.
func (n *Network) newPacket(st stage) *packet {
	p := n.free
	if p == nil {
		p = &packet{n: n}
		p.fn = p.step
		n.packets++
	} else {
		n.free, p.next = p.next, nil
	}
	p.stage = st
	return p
}

// freePacket returns p to the free list at the end of its trip.
func (n *Network) freePacket(p *packet) {
	*p = packet{n: n, fn: p.fn, next: n.free}
	n.free = p
}

// step moves p on from the leg that just ended.
func (p *packet) step() {
	n := p.n
	switch p.stage {
	case inDown:
		p.stage = inRx
		n.rxCharge(p.seg, p.fn)
	case inTx:
		p.stage = inUp
		n.up.deliver(p.seg, p.fn)
	case inRx:
		switch {
		case p.c == nil:
			n.delivered += int64(p.seg)
			p.deliverDatagram()
		case p.gen != p.c.gen:
			n.freePacket(p) // stale in-flight segment from before a reset
		default:
			p.c.onSegment(p)
		}
	case inUp:
		if p.c == nil {
			p.deliverDatagram()
			return
		}
		// At the server the ACK releases more segments; one sent before a
		// reset still arrives and still pumps.
		p.c.pump()
		n.freePacket(p)
	}
}

// deliverDatagram runs the datagram's callback and frees the packet.
func (p *packet) deliverDatagram() {
	if p.app != nil {
		p.app()
	}
	p.n.freePacket(p)
}

// ----- iperf -----

// IperfResult reports a bulk-transfer measurement.
type IperfResult struct {
	Throughput units.BitRate
}

// Iperf runs a continuous server-to-device bulk transfer for the given
// duration and reports the goodput, mirroring the paper's §4.1 methodology.
// fn receives the result; the measurement ends on the first segment
// completion at or after the deadline.
func (n *Network) Iperf(duration time.Duration, fn func(IperfResult)) {
	conn := n.NewConn("iperf")
	start := n.s.Now()
	startBytes := n.delivered
	// A transfer far larger than the link could move in the window.
	huge := units.ByteSize(float64(n.cfg.Rate)/8*duration.Seconds()) * 4
	finished := false
	report := func() {
		if finished {
			return
		}
		finished = true
		conn.Abort()
		got := units.ByteSize(n.delivered - startBytes)
		el := n.s.Now() - start
		var res IperfResult
		if el > 0 {
			res.Throughput = units.BitRate(float64(got) * 8 / el.Seconds())
		}
		fn(res)
	}
	n.s.PostAfter(duration, report)
	conn.Request("bulk", 100, huge, 0, report)
}
