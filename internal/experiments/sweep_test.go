package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mobileqoe/internal/core"
	"mobileqoe/internal/device"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/trace"
	"mobileqoe/internal/units"
	"mobileqoe/internal/video"
)

// TestSweepVariantOptionsFollowPoint: a variant's options apply after its
// point's. The point sets the LAN profile, whose WithNetwork replaces the
// whole network config, and the variant frees packet processing; applied in
// the other order the LAN profile would overwrite the ablation and the cell
// would read the charged throughput. The Row-less sweep also prints each
// variant's workload cells side by side.
func TestSweepVariantOptionsFollowPoint(t *testing.T) {
	cfg := quick()
	clock, lan, free := core.WithClock(units.MHz(384)), core.WithNetwork(netsim.Profiles()["lan"]), core.WithoutPacketCPUCharge()
	s := &Sweep{ID: "order", Axis: "network", Workload: Workload{Kind: KindIperf},
		Points:   []Point{{"lan", device.Nexus4(), []core.Option{clock, lan}}},
		Variants: []Variant{{}, {Opts: []core.Option{free}}}}
	tab, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(tab.Columns, ","), "network,throughput_mbps,throughput_mbps"; got != want {
		t.Fatalf("columns = %s, want %s", got, want)
	}
	direct := func(opts ...core.Option) string {
		res, err := Workload{Kind: KindIperf}.Run(cfg, cfg.NewSystem(device.Nexus4(), opts...), nil)
		if err != nil {
			t.Fatal(err)
		}
		return mbps(res.Iperf.Throughput.Mbpsf())
	}
	charged, freed, reversed := direct(clock, lan), direct(clock, lan, free), direct(free, clock, lan)
	if got := tab.Rows[0][1:]; got[0] != charged || got[1] != freed {
		t.Fatalf("cells = %v, want [%s %s] (point options, then the variant's)", got, charged, freed)
	}
	if reversed == freed || reversed != charged {
		t.Fatalf("variant-first order read %s Mbps, want the charged %s (freed %s): the test no longer tells the orders apart",
			reversed, charged, freed)
	}
}

// TestAblPrefetchDoublesClipExactly: abl-prefetch streams exactly twice the
// configured clip. At a 672 ms clip, a round trip through float seconds would
// stream 1.343999999 s; the table's cells cannot show the missing nanosecond,
// but the trace of the two streams can.
func TestAblPrefetchDoublesClipExactly(t *testing.T) {
	traced := func(run func(Config) error) []byte {
		cfg := quick()
		cfg.ClipDuration = 672 * time.Millisecond
		cfg.Trace = trace.New()
		if err := run(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cfg.Trace.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := traced(func(cfg Config) error { _, err := ablPrefetch(cfg); return err })
	want := traced(func(cfg Config) error {
		for _, extra := range [][]core.Option{nil, {core.WithoutPrefetch()}} {
			opts := append([]core.Option{core.WithClock(units.MHz(384)),
				core.WithNetwork(netsim.Config{ChargeCPU: true, Loss: 0.02})}, extra...)
			stream := core.VideoStream{Config: video.StreamConfig{Duration: 1344 * time.Millisecond}}
			if _, err := cfg.NewSystem(device.Nexus4(), opts...).Run(stream); err != nil {
				return err
			}
		}
		return nil
	})
	if !bytes.Equal(got, want) {
		t.Fatal("abl-prefetch's trace differs from two streams of exactly 1.344 s")
	}
}
