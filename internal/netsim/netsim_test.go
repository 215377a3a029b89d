package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/units"
)

func nexus4CPU(s *sim.Sim, mhz float64) *cpu.CPU {
	cfg := cpu.FromSpec(device.Nexus4(), cpu.Userspace)
	cfg.UserspaceFreq = units.MHz(mhz)
	return cpu.New(s, cfg)
}

func testNet(s *sim.Sim, c *cpu.CPU) *Network {
	return New(s, c, Config{ChargeCPU: true})
}

func TestConnectTakesAboutOneRTT(t *testing.T) {
	s := sim.New()
	c := nexus4CPU(s, 1512)
	n := testNet(s, c)
	conn := n.NewConn("c")
	var at time.Duration
	conn.Connect(func() { at = s.Now(); c.Stop() })
	s.Run()
	if at < 10*time.Millisecond || at > 12*time.Millisecond {
		t.Fatalf("handshake took %v, want ~RTT", at)
	}
	fired := false
	conn.Connect(func() { fired = true })
	if !fired {
		t.Fatal("not established: a second Connect waited")
	}
}

func TestConnectCoalesces(t *testing.T) {
	s := sim.New()
	c := nexus4CPU(s, 1512)
	n := testNet(s, c)
	conn := n.NewConn("c")
	count := 0
	conn.Connect(func() { count++ })
	conn.Connect(func() { count++ })
	s.RunUntil(time.Second)
	c.Stop()
	if count != 2 {
		t.Fatalf("both waiters should fire once each, got %d", count)
	}
	// Connect after establishment fires synchronously.
	fired := false
	conn.Connect(func() { fired = true })
	if !fired {
		t.Fatal("post-establishment Connect not immediate")
	}
}

func TestSmallRequestLatency(t *testing.T) {
	s := sim.New()
	c := nexus4CPU(s, 1512)
	n := testNet(s, c)
	conn := n.NewConn("c")
	var at time.Duration
	conn.Request("obj", 200, 10*units.KB, 0, func() { at = s.Now(); c.Stop() })
	s.Run()
	// Handshake (1 RTT) + request/response (>=1 RTT) + serialization+CPU.
	if at < 20*time.Millisecond || at > 40*time.Millisecond {
		t.Fatalf("10KB object took %v, want ~2-3 RTT", at)
	}
}

func TestRequestsAreFIFO(t *testing.T) {
	s := sim.New()
	c := nexus4CPU(s, 1512)
	n := testNet(s, c)
	conn := n.NewConn("c")
	var order []string
	conn.Request("a", 100, 5*units.KB, 0, func() { order = append(order, "a") })
	conn.Request("b", 100, 5*units.KB, 0, func() { order = append(order, "b") })
	conn.Request("c", 100, 5*units.KB, 0, func() { order = append(order, "c"); c.Stop() })
	s.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
	if len(conn.pending)+len(conn.actives) != 0 {
		t.Fatal("requests left over")
	}
}

func TestZeroByteResponse(t *testing.T) {
	s := sim.New()
	c := nexus4CPU(s, 1512)
	n := testNet(s, c)
	conn := n.NewConn("c")
	fired := false
	conn.Request("head", 100, 0, 0, func() { fired = true; c.Stop() })
	s.Run()
	if !fired {
		t.Fatal("zero-byte response never completed")
	}
}

func TestServerThinkTime(t *testing.T) {
	s := sim.New()
	c := nexus4CPU(s, 1512)
	n := testNet(s, c)
	fast, slow := time.Duration(0), time.Duration(0)
	conn := n.NewConn("c")
	conn.Request("fast", 100, units.KB, 0, func() { fast = s.Now() })
	s.Run()
	c.Stop()

	s2 := sim.New()
	c2 := nexus4CPU(s2, 1512)
	n2 := testNet(s2, c2)
	conn2 := n2.NewConn("c")
	conn2.Request("slow", 100, units.KB, 100*time.Millisecond, func() { slow = s2.Now() })
	s2.Run()
	c2.Stop()
	if slow-fast < 90*time.Millisecond {
		t.Fatalf("think time not applied: fast=%v slow=%v", fast, slow)
	}
}

func TestIperfReproducesFig6Endpoints(t *testing.T) {
	// Fig. 6: ~48 Mbps at 1512 MHz falling to ~32 Mbps at 384 MHz on a
	// 72 Mbps AP with 10 ms RTT and no loss.
	measure := func(mhz float64) float64 {
		s := sim.New()
		c := nexus4CPU(s, mhz)
		n := testNet(s, c)
		var got float64
		n.Iperf(5*time.Second, func(r IperfResult) { got = r.Throughput.Mbpsf(); c.Stop() })
		s.Run()
		return got
	}
	high := measure(1512)
	low := measure(384)
	if high < 43 || high > 50 {
		t.Errorf("throughput at 1512 MHz = %.1f Mbps, want ~46-48", high)
	}
	if low < 28 || low > 36 {
		t.Errorf("throughput at 384 MHz = %.1f Mbps, want ~32", low)
	}
	if low >= high {
		t.Errorf("slow clock should reduce throughput: %v vs %v", low, high)
	}
}

func TestIperfMonotoneInClock(t *testing.T) {
	prev := 0.0
	for _, mhz := range []float64{384, 702, 1026, 1512} {
		s := sim.New()
		c := nexus4CPU(s, mhz)
		n := testNet(s, c)
		var got float64
		n.Iperf(2*time.Second, func(r IperfResult) { got = r.Throughput.Mbpsf(); c.Stop() })
		s.Run()
		if got < prev-0.5 {
			t.Fatalf("throughput not monotone at %v MHz: %.1f < %.1f", mhz, got, prev)
		}
		prev = got
	}
}

func TestChargeCPUAblation(t *testing.T) {
	// With packet processing free, the slow clock should no longer matter:
	// both runs hit the link ceiling.
	measure := func(mhz float64) float64 {
		s := sim.New()
		c := nexus4CPU(s, mhz)
		n := New(s, c, Config{ChargeCPU: false})
		var got float64
		n.Iperf(2*time.Second, func(r IperfResult) { got = r.Throughput.Mbpsf(); c.Stop() })
		s.Run()
		return got
	}
	high, low := measure(1512), measure(384)
	if diff := high - low; diff > 1 || diff < -1 {
		t.Fatalf("ablated runs differ: %v vs %v Mbps", low, high)
	}
	if high < 40 {
		t.Fatalf("ablated throughput %.1f Mbps below link ceiling", high)
	}
}

func TestLossReducesThroughput(t *testing.T) {
	measure := func(loss float64) float64 {
		s := sim.New()
		c := nexus4CPU(s, 1512)
		n := New(s, c, Config{ChargeCPU: true, Loss: loss})
		var got float64
		n.Iperf(2*time.Second, func(r IperfResult) { got = r.Throughput.Mbpsf(); c.Stop() })
		s.Run()
		return got
	}
	clean, lossy := measure(0), measure(0.02)
	if lossy >= clean*0.9 {
		t.Fatalf("2%% loss barely hurt: %.1f vs %.1f Mbps", lossy, clean)
	}
	if lossy <= 0 {
		t.Fatal("lossy transfer made no progress")
	}
}

func TestDatagrams(t *testing.T) {
	s := sim.New()
	c := nexus4CPU(s, 1512)
	n := testNet(s, c)
	var sent, recvd time.Duration
	n.SendDatagram(units.KB, func() { sent = s.Now() })
	n.RecvDatagram(units.KB, func() { recvd = s.Now() })
	s.RunUntil(time.Second)
	c.Stop()
	if sent <= 0 || sent > 10*time.Millisecond {
		t.Fatalf("datagram send latency = %v, want ~RTT/2", sent)
	}
	if recvd <= 0 || recvd > 10*time.Millisecond {
		t.Fatalf("datagram recv latency = %v, want ~RTT/2", recvd)
	}
}

func TestDatagramLossDrops(t *testing.T) {
	s := sim.New()
	c := nexus4CPU(s, 1512)
	// Loss = 1 is rejected by Validate (a link losing everything is a config
	// bug); 0.999 drops the single deterministic RNG draw all the same.
	n := New(s, c, Config{ChargeCPU: true, Loss: 0.999})
	delivered := false
	n.RecvDatagram(units.KB, func() { delivered = true })
	s.RunUntil(time.Second)
	c.Stop()
	if delivered || n.delivered != 0 {
		t.Fatalf("datagram survived 99.9%% loss (%d bytes delivered)", n.delivered)
	}
}

func TestByteConservation(t *testing.T) {
	// Every requested byte is delivered exactly once.
	s := sim.New()
	c := nexus4CPU(s, 810)
	n := testNet(s, c)
	conn := n.NewConn("c")
	const want = 3*units.MB + 123
	conn.Request("obj", 200, want, 0, func() { c.Stop() })
	s.Run()
	if got := n.delivered; got != int64(want) {
		t.Fatalf("delivered %d bytes, want %d", got, int64(want))
	}
}

// Property: transfers of arbitrary sizes complete and deliver exactly their
// size, at any clock step.
func TestTransferCompletionProperty(t *testing.T) {
	steps := device.Nexus4FreqSteps()
	f := func(kb uint16, stepIdx uint8) bool {
		size := units.ByteSize(kb%2048) * units.KB
		s := sim.New()
		cfg := cpu.FromSpec(device.Nexus4(), cpu.Userspace)
		cfg.UserspaceFreq = steps[int(stepIdx)%len(steps)]
		c := cpu.New(s, cfg)
		n := testNet(s, c)
		conn := n.NewConn("c")
		completed := false
		conn.Request("obj", 100, size, 0, func() { completed = true; c.Stop() })
		s.Run()
		return completed && n.delivered == int64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNoCPUNetworkStillWorks(t *testing.T) {
	// A Network without an attached CPU (nil) is usable for server-side or
	// estimation contexts.
	s := sim.New()
	n := New(s, nil, Config{})
	conn := n.NewConn("c")
	done := false
	conn.Request("obj", 100, 100*units.KB, 0, func() { done = true })
	s.Run()
	if !done {
		t.Fatal("transfer did not finish")
	}
	// Without a CPU each charge runs its stage at once; packets still
	// come home.
	checkPool(t, n)
}

func TestAbortStopsTransfer(t *testing.T) {
	s := sim.New()
	c := nexus4CPU(s, 1512)
	n := testNet(s, c)
	conn := n.NewConn("c")
	done := false
	conn.Request("obj", 100, 50*units.MB, 0, func() { done = true })
	s.At(100*time.Millisecond, func() { conn.Abort() })
	s.Run()
	c.Stop()
	if done {
		t.Fatal("aborted transfer reported completion")
	}
	if n.delivered >= int64(50*units.MB) {
		t.Fatal("transfer ran to completion despite abort")
	}
}
