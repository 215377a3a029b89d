package netsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"mobileqoe/internal/fault"
	"mobileqoe/internal/obs"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/trace"
	"mobileqoe/internal/units"
)

// faultRun drives one Network through the paths where a packet's life ends
// early or late: segments in flight when an injected reset bumps the
// connection generation, ACKs that reach the server after the reset,
// burst-loss retransmissions, a mid-transfer Abort followed by reuse of the
// same connection, and datagrams in both directions. It runs the simulation
// to completion and returns the network and a log of every completion.
func faultRun(t *testing.T, http2 bool) (*Network, []string) {
	t.Helper()
	s := sim.New()
	c := nexus4CPU(s, 810)
	plan := &fault.Plan{Faults: []fault.Spec{
		{Kind: fault.BurstLoss, AtMs: 800, DurMs: 250},
		{Kind: fault.ConnReset, AtMs: 100, DurMs: 1400, Prob: 0.5},
		{Kind: fault.ServerError, AtMs: 2600, DurMs: 400, Prob: 0.5},
	}}
	m := trace.NewMetrics()
	inj := fault.NewInjector(s, plan, nil, nil, 0, nil)
	n := New(s, c, Config{ChargeCPU: true, HTTP2: http2, Obs: obs.Ctx{Faults: inj, Metrics: m}})
	var log []string
	done := func(name string) func(error) {
		return func(err error) {
			log = append(log, fmt.Sprintf("%s@%v err=%v", name, s.Now(), err))
		}
	}

	// A chain of requests on one connection, each issued when the previous
	// one completes, keeps requests going out through the reset window.
	web := n.NewConn("web")
	var next func(i int) func(error)
	next = func(i int) func(error) {
		return func(err error) {
			done(fmt.Sprintf("web%d", i))(err)
			if i < 12 {
				web.RequestE(fmt.Sprintf("web%d", i+1), 300, units.ByteSize(40+20*i)*units.KB, time.Millisecond, next(i+1))
			}
		}
	}
	web.RequestE("web0", 300, 40*units.KB, time.Millisecond, next(0))
	// Staggered requests on a second connection: under HTTP/2 each joins
	// the streams already in flight, under HTTP/1.1 it queues behind them.
	mux := n.NewConn("mux")
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("mux%d", i)
		s.At(time.Duration(i)*60*time.Millisecond, func() {
			mux.RequestE(name, 200, units.ByteSize(64+32*i)*units.KB, 0, done(name))
		})
	}

	// A bulk transfer aborted mid-flight, then a fresh request on the same
	// connection while the aborted segments are still arriving.
	bulk := n.NewConn("bulk")
	bulk.RequestE("bulk", 100, 20*units.MB, 0, done("bulk"))
	s.At(150*time.Millisecond, func() {
		bulk.Abort()
		bulk.RequestE("after-abort", 100, 300*units.KB, 0, done("after-abort"))
	})

	// Media datagrams both ways, some of them inside the burst-loss window.
	sent, recvd := 0, 0
	var lastRecv time.Duration
	for i := 0; i < 40; i++ {
		s.At(time.Duration(i)*25*time.Millisecond, func() {
			n.SendDatagram(200, func() { sent++ })
			n.RecvDatagram(900, func() { recvd++; lastRecv = s.Now() })
		})
	}

	s.At(3*time.Second, c.Stop)
	s.Run()
	log = append(log, fmt.Sprintf("datagrams sent=%d recvd=%d last@%v", sent, recvd, lastRecv),
		fmt.Sprintf("conn_resets=%v retransmits=%v",
			m.Counter("netsim.conn_resets").Value(), m.Counter("netsim.retransmits").Value()),
		fmt.Sprintf("segments=%v acks=%v bytes=%d",
			m.Counter("netsim.segments").Value(), m.Counter("netsim.acks").Value(), n.delivered))
	return n, log
}

// checkPool fails unless every packet n ever allocated is back on its free
// list exactly once: a leak leaves the list short, a double release links a
// packet twice (and makes the list cyclic, which the seen-set catches).
func checkPool(t *testing.T, n *Network) {
	t.Helper()
	seen := map[*packet]bool{}
	for p := n.free; p != nil; p = p.next {
		if seen[p] {
			t.Fatalf("packet %p is on the free list twice", p)
		}
		seen[p] = true
	}
	if len(seen) != n.packets {
		t.Fatalf("%d of %d packets back on the free list after the run", len(seen), n.packets)
	}
	if n.packets == 0 {
		t.Fatal("the run allocated no packets")
	}
}

func TestPacketPoolUnderFaults(t *testing.T) {
	// Recorded with one closure per stage, before packets carried the
	// stages. Packets change who owns the callbacks, never what happens
	// when, so every value must repeat exactly.
	want := map[bool][]string{
		false: {
			"web0@45.882853ms err=<nil>",
			"mux0@59.734529ms err=<nil>",
			"web1@78.68571ms err=<nil>",
			"web2@125.437659ms err=<nil>",
			"mux1@128.534517ms err=<nil>",
			"web3@159.794299ms err=<nil>",
			"mux2@216.034853ms err=<nil>",
			"web4@217.718345ms err=<nil>",
			"mux3@254.861307ms err=<nil>",
			"web5@306.734587ms err=<nil>",
			"web6@358.687111ms err=<nil>",
			"mux4@418.09458ms err=<nil>",
			"after-abort@421.181534ms err=<nil>",
			"web7@551.980876ms err=<nil>",
			"mux5@574.208756ms err=<nil>",
			"web8@670.747135ms err=<nil>",
			"mux6@682.401624ms err=<nil>",
			"mux7@798.393616ms err=<nil>",
			"mux8@1.12719265s err=<nil>",
			"mux9@1.324701543s err=<nil>",
			"web9@2.776337538s err=<nil>",
			"web10@2.949196291s err=<nil>",
			"web11@3.045410081s err=<nil>",
			"web12@3.114518555s err=<nil>",
			"datagrams sent=40 recvd=40 last@980.276865ms",
			"conn_resets=19 retransmits=28",
			"segments=3244 acks=1631 bytes=4750020",
		},
		true: {
			"web0@45.831232ms err=<nil>",
			"mux0@59.682908ms err=<nil>",
			"web1@78.634089ms err=<nil>",
			"web2@125.386038ms err=<nil>",
			"mux1@128.482896ms err=<nil>",
			"web3@175.938966ms err=<nil>",
			"mux2@199.533877ms err=<nil>",
			"web4@234.369146ms err=<nil>",
			"web5@327.992017ms err=<nil>",
			"after-abort@376.405547ms err=<nil>",
			"web6@496.999794ms err=<nil>",
			"web7@536.710522ms err=<nil>",
			"mux3@1.739660284s err=<nil>",
			"mux4@1.78685663s err=<nil>",
			"mux5@1.816055778s err=<nil>",
			"mux6@1.838161422s err=<nil>",
			"mux7@1.855150259s err=<nil>",
			"mux8@1.866887785s err=<nil>",
			"mux9@1.87344648s err=<nil>",
			"web8@2.740535245s err=<nil>",
			"web9@2.92202591s err=<nil>",
			"web10@2.933298347s err=netsim: server answered with an error response",
			"web11@2.944549797s err=netsim: server answered with an error response",
			"web12@2.955801247s err=netsim: server answered with an error response",
			"datagrams sent=40 recvd=39 last@980.276865ms",
			"conn_resets=19 retransmits=13",
			"segments=2838 acks=1428 bytes=4156456",
		},
	}
	for _, h2 := range []bool{false, true} {
		t.Run(fmt.Sprintf("http2=%v", h2), func(t *testing.T) {
			n, log := faultRun(t, h2)
			checkPool(t, n)
			if w := want[h2]; !slices.Equal(log, w) {
				t.Errorf("completion log:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(w, "\n"))
			}
		})
	}
}

// TestIperfAllocations pins the Fig. 6 transfer's allocation count: the
// per-segment path (link delivery, softirq charge, delayed ACK) must not
// allocate, so a one-second iperf costs a few hundred allocations for the
// system and its warm-up, and a second transfer on the same warm Network
// costs a constant handful. A closure per segment or per ACK would add
// thousands to both.
func TestIperfAllocations(t *testing.T) {
	var n *Network
	var steps uint64
	fresh := testing.AllocsPerRun(3, func() {
		s := sim.New()
		c := nexus4CPU(s, 1512)
		n = testNet(s, c)
		n.Iperf(time.Second, func(IperfResult) { c.Stop() })
		s.Run()
		steps = s.Steps()
	})
	checkPool(t, n)
	if fresh > 600 {
		t.Errorf("fresh 1 s iperf allocates %.0f times, want <= 600", fresh)
	}
	if steps != 11666 {
		t.Errorf("fresh 1 s iperf takes %d kernel steps, want 11666", steps)
	}

	s := sim.New()
	c := nexus4CPU(s, 1512)
	n = testNet(s, c)
	iperf := func() {
		var got IperfResult
		n.Iperf(time.Second, func(r IperfResult) { got = r })
		s.RunUntil(s.Now() + 2*time.Second)
		if got.Throughput == 0 {
			t.Fatal("iperf moved no bytes")
		}
	}
	iperf() // warm the packet pool, the lanes and the softirq queue
	warm := testing.AllocsPerRun(3, iperf)
	if warm > 40 {
		t.Errorf("iperf on a warm network allocates %.0f times, want O(1) per transfer (<= 40)", warm)
	}
	c.Stop()
	s.Run()
	checkPool(t, n)
}
