package netsim

import (
	"testing"
	"time"

	"mobileqoe/internal/cpu"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/units"
)

func tlsNet(s *sim.Sim, c *cpu.CPU) *Network {
	return New(s, c, Config{ChargeCPU: true, TLS: true})
}

func TestTLSHandshakeAddsRoundTripsAndCrypto(t *testing.T) {
	connect := func(tls bool, mhz float64) time.Duration {
		s := sim.New()
		c := nexus4CPU(s, mhz)
		n := New(s, c, Config{ChargeCPU: true, TLS: tls})
		conn := n.NewConn("c")
		var at time.Duration
		conn.Connect(func() { at = s.Now(); c.Stop() })
		s.Run()
		return at
	}
	plain := connect(false, 1512)
	tls := connect(true, 1512)
	// TCP 1 RTT + TLS 2 RTT + crypto (~30ms at 1512 MHz).
	if tls < plain+2*10*time.Millisecond {
		t.Fatalf("TLS handshake too cheap: %v vs %v", tls, plain)
	}
	// Crypto is CPU work, so TLS setup grows at a slow clock.
	tlsSlow := connect(true, 384)
	if tlsSlow <= tls {
		t.Fatalf("TLS handshake should slow with the clock: %v vs %v", tlsSlow, tls)
	}
	extraFast := tls - plain
	extraSlow := tlsSlow - connect(false, 384)
	if float64(extraSlow)/float64(extraFast) < 2 {
		t.Fatalf("TLS CPU cost should roughly scale with 1/clock: %v vs %v", extraSlow, extraFast)
	}
}

func TestTLSRecordProcessingSlowsTransfers(t *testing.T) {
	run := func(tls bool) time.Duration {
		s := sim.New()
		c := nexus4CPU(s, 384)
		n := New(s, c, Config{ChargeCPU: true, TLS: tls})
		conn := n.NewConn("c")
		var at time.Duration
		conn.Request("obj", 200, 2*units.MB, 0, func() { at = s.Now(); c.Stop() })
		s.Run()
		return at
	}
	plain, tls := run(false), run(true)
	if tls <= plain {
		t.Fatalf("TLS record processing should slow the transfer: %v vs %v", tls, plain)
	}
	// The per-byte cost is a modest tax, not a cliff.
	if float64(tls)/float64(plain) > 2 {
		t.Fatalf("TLS tax implausibly large: %v vs %v", tls, plain)
	}
}

func TestTLSWithoutCPUChargeStillHandshakes(t *testing.T) {
	s := sim.New()
	n := New(s, nil, Config{TLS: true, ChargeCPU: false})
	conn := n.NewConn("c")
	done := false
	conn.Request("obj", 100, 10*units.KB, 0, func() { done = true })
	s.Run()
	if !done {
		t.Fatal("TLS request without a CPU never completed")
	}
}

func TestByteConservationWithTLS(t *testing.T) {
	s := sim.New()
	c := nexus4CPU(s, 810)
	n := tlsNet(s, c)
	conn := n.NewConn("c")
	const want = units.MB + 77
	conn.Request("obj", 200, want, 0, func() { c.Stop() })
	s.Run()
	// TLS adds handshake bytes on top of the payload.
	if got := n.delivered; got < int64(want) {
		t.Fatalf("delivered %d bytes, want >= %d", got, int64(want))
	}
}

func TestNetworkProfiles(t *testing.T) {
	ps := Profiles()
	for _, name := range []string{"lan", "lte", "3g"} {
		cfg, ok := ps[name]
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		if cfg.Rate <= 0 || cfg.RTT <= 0 || !cfg.ChargeCPU {
			t.Fatalf("profile %s misconfigured: %+v", name, cfg)
		}
	}
	if Profile3G().Rate >= ProfileLTE().Rate || ProfileLTE().Rate >= ProfileLAN().Rate {
		t.Fatal("profile rates should be ordered 3g < lte < lan")
	}
	if Profile3G().RTT <= ProfileLTE().RTT {
		t.Fatal("3G RTT should exceed LTE")
	}
}

func TestHTTP2Multiplexing(t *testing.T) {
	s := sim.New()
	c := nexus4CPU(s, 1512)
	n := New(s, c, Config{ChargeCPU: true, HTTP2: true})
	conn := n.NewConn("h2")
	var done []int
	var finishTimes []time.Duration
	for i := 0; i < 5; i++ {
		i := i
		conn.Request("obj", 400, 200*units.KB, 0, func() {
			done = append(done, i)
			finishTimes = append(finishTimes, s.Now())
		})
	}
	s.RunUntil(time.Minute)
	c.Stop()
	s.Run()
	if len(done) != 5 {
		t.Fatalf("only %d/5 streams completed", len(done))
	}
	// All bytes delivered exactly once.
	if got := n.delivered; got != int64(5*200*units.KB) {
		t.Fatalf("delivered %d bytes, want %d", got, int64(5*200*units.KB))
	}
	// Streams interleave: the last finisher should land close to the first
	// (shared-bandwidth round-robin), unlike HTTP/1.1's serial spread.
	spread := finishTimes[len(finishTimes)-1] - finishTimes[0]
	serial := serialSpread(t, 5, 200*units.KB)
	if spread >= serial {
		t.Fatalf("h2 finish spread %v not tighter than serial %v", spread, serial)
	}
}

// serialSpread measures the finish spread of the same workload on HTTP/1.1.
func serialSpread(t *testing.T, k int, size units.ByteSize) time.Duration {
	t.Helper()
	s := sim.New()
	c := nexus4CPU(s, 1512)
	n := New(s, c, Config{ChargeCPU: true})
	conn := n.NewConn("h1")
	var finishTimes []time.Duration
	for i := 0; i < k; i++ {
		conn.Request("obj", 400, size, 0, func() {
			finishTimes = append(finishTimes, s.Now())
		})
	}
	s.RunUntil(time.Minute)
	c.Stop()
	s.Run()
	if len(finishTimes) != k {
		t.Fatalf("h1 completed %d/%d", len(finishTimes), k)
	}
	return finishTimes[len(finishTimes)-1] - finishTimes[0]
}

func TestHTTP2WithTLSAndLoss(t *testing.T) {
	s := sim.New()
	c := nexus4CPU(s, 810)
	n := New(s, c, Config{ChargeCPU: true, HTTP2: true, TLS: true, Loss: 0.02})
	conn := n.NewConn("h2")
	completed := 0
	for i := 0; i < 4; i++ {
		conn.Request("obj", 400, 100*units.KB, 0, func() { completed++ })
	}
	s.RunUntil(time.Minute)
	c.Stop()
	s.Run()
	if completed != 4 {
		t.Fatalf("completed %d/4 under h2+TLS+loss", completed)
	}
}
