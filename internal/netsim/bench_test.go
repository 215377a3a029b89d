package netsim

import (
	"testing"
	"time"

	"mobileqoe/internal/sim"
)

// BenchmarkIperf runs the Fig. 6 measurement: a one-second bulk transfer to
// a Nexus 4 at 1512 MHz with the per-packet CPU charge on, the netsim path
// where every segment is a link delivery plus softirq work. events/op is the
// kernel's exact step count per transfer, so it repeats across machines.
func BenchmarkIperf(b *testing.B) {
	b.ReportAllocs()
	var steps uint64
	var got IperfResult
	for i := 0; i < b.N; i++ {
		s := sim.New()
		c := nexus4CPU(s, 1512)
		n := testNet(s, c)
		n.Iperf(time.Second, func(r IperfResult) { got = r; c.Stop() })
		s.Run()
		steps += s.Steps()
	}
	if got.Throughput == 0 {
		b.Fatal("iperf moved no bytes")
	}
	b.ReportMetric(float64(steps)/float64(b.N), "events/op")
}
