package wprof

import (
	"strings"
	"testing"
	"time"

	"mobileqoe/internal/browser"
	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/dsp"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/units"
	"mobileqoe/internal/webpage"
)

// trace loads a page on a Nexus4 at the given clock and returns the result.
func trace(t *testing.T, page *webpage.Page, mhz float64) browser.Result {
	t.Helper()
	s := sim.New()
	ccfg := cpu.FromSpec(device.Nexus4(), cpu.Userspace)
	ccfg.UserspaceFreq = units.MHz(mhz)
	c := cpu.New(s, ccfg)
	n := netsim.New(s, c, netsim.Config{ChargeCPU: true})
	var res browser.Result
	fired := false
	browser.Load(browser.Config{Sim: s, CPU: c, Net: n}, page, func(r browser.Result) {
		res = r
		fired = true
		c.Stop()
	})
	s.RunUntil(10 * time.Minute)
	c.Stop()
	s.Run()
	if !fired {
		t.Fatal("load did not complete")
	}
	return res
}

func sportsPage() *webpage.Page {
	return webpage.Generate("sports-wp.example", webpage.Sports, 77)
}

func TestCriticalPathDecomposition(t *testing.T) {
	res := trace(t, sportsPage(), 1512)
	g := FromResult(res)
	st := g.CriticalPath()
	if st.Total <= 0 {
		t.Fatal("empty critical path")
	}
	if len(st.NodeIDs) < 3 {
		t.Fatalf("critical path too short: %v", st.NodeIDs)
	}
	// Path time decomposes into network + compute.
	sum := st.Network + st.Compute
	if diff := (sum - st.Total).Abs(); diff > st.Total/100 {
		t.Fatalf("decomposition mismatch: net %v + compute %v != total %v", st.Network, st.Compute, st.Total)
	}
	if st.Network <= 0 || st.Compute <= 0 {
		t.Fatalf("both components should be present: %+v", st)
	}
	if st.Script <= 0 || st.Script > st.Compute {
		t.Fatalf("script time %v out of range (compute %v)", st.Script, st.Compute)
	}
}

func TestCriticalPathInflatesAtLowClock(t *testing.T) {
	// §3.1: both network and compute time on the critical path grow when the
	// clock drops (network grows because packet processing slows).
	page := sportsPage()
	high := FromResult(trace(t, page, 1512)).CriticalPath()
	low := FromResult(trace(t, page, 384)).CriticalPath()
	if low.Compute <= high.Compute {
		t.Fatalf("compute did not inflate: %v -> %v", high.Compute, low.Compute)
	}
	if low.Network <= high.Network {
		t.Fatalf("network did not inflate: %v -> %v", high.Network, low.Network)
	}
	// Compute inflates faster than network (the paper's 76% vs 66%).
	cRatio := float64(low.Compute) / float64(high.Compute)
	nRatio := float64(low.Network) / float64(high.Network)
	if cRatio <= nRatio {
		t.Fatalf("compute ratio %.2f should exceed network ratio %.2f", cRatio, nRatio)
	}
}

func TestEPLTMatchesMeasuredPLTOrder(t *testing.T) {
	// Re-evaluating the graph at the same rate should land near the measured
	// PLT (the schedule model is an approximation, not a copy).
	res := trace(t, sportsPage(), 1512)
	g := FromResult(res)
	eplt := g.EPLT(EvalOptions{EffectiveRate: 1512e6})
	lo, hi := res.PLT/2, res.PLT*2
	if eplt < lo || eplt > hi {
		t.Fatalf("ePLT %v too far from measured PLT %v", eplt, res.PLT)
	}
}

func TestEPLTScalesWithRate(t *testing.T) {
	g := FromResult(trace(t, sportsPage(), 1512))
	fast := g.EPLT(EvalOptions{EffectiveRate: 1512e6})
	slow := g.EPLT(EvalOptions{EffectiveRate: 384e6})
	if slow <= fast {
		t.Fatal("ePLT should grow at lower rates")
	}
	ratio := float64(slow) / float64(fast)
	if ratio < 1.5 || ratio > 4.5 {
		t.Fatalf("ePLT ratio = %.2f, want compute-bound growth", ratio)
	}
}

func TestOffloadImprovesEPLT(t *testing.T) {
	// Fig 7a: ~18% ePLT improvement at default clocks on sports pages.
	s := sim.New()
	d := dsp.New(s, dsp.Config{})
	g := FromResult(trace(t, sportsPage(), 1512))
	base := g.EPLT(EvalOptions{EffectiveRate: 1512e6})
	off := g.EPLT(EvalOptions{EffectiveRate: 1512e6, Offload: true, DSP: d})
	gain := 1 - float64(off)/float64(base)
	if gain < 0.08 || gain > 0.35 {
		t.Fatalf("offload ePLT gain = %.1f%%, want ~18%%", gain*100)
	}
}

func TestOffloadGainGrowsAtLowClock(t *testing.T) {
	// Fig 7c: the improvement is largest (up to ~25%) at low clocks.
	s := sim.New()
	d := dsp.New(s, dsp.Config{})
	g := FromResult(trace(t, sportsPage(), 1512))
	gain := func(rate float64) float64 {
		base := g.EPLT(EvalOptions{EffectiveRate: rate})
		off := g.EPLT(EvalOptions{EffectiveRate: rate, Offload: true, DSP: d})
		return 1 - float64(off)/float64(base)
	}
	gHigh := gain(1512e6)
	gLow := gain(300e6)
	if gLow <= gHigh {
		t.Fatalf("offload gain should grow at low clocks: %.1f%% vs %.1f%%", gLow*100, gHigh*100)
	}
	if gLow < 0.15 || gLow > 0.45 {
		t.Fatalf("low-clock gain = %.1f%%, want ~25%%", gLow*100)
	}
}

func TestScriptStatsCPUvsDSP(t *testing.T) {
	// Fig 7a left axis: average script execution time drops with offload.
	s := sim.New()
	d := dsp.New(s, dsp.Config{})
	g := FromResult(trace(t, sportsPage(), 1512))
	cpuT, n1 := g.ScriptStats(EvalOptions{EffectiveRate: 1512e6})
	dspT, n2 := g.ScriptStats(EvalOptions{EffectiveRate: 1512e6, Offload: true, DSP: d})
	if n1 == 0 || n1 != n2 {
		t.Fatalf("script counts: %d vs %d", n1, n2)
	}
	if dspT >= cpuT {
		t.Fatalf("offloaded scripting (%v) should beat CPU (%v)", dspT, cpuT)
	}
	reduction := 1 - float64(dspT)/float64(cpuT)
	if reduction < 0.15 || reduction > 0.55 {
		t.Fatalf("scripting reduction = %.0f%%, want ~33%%", reduction*100)
	}
}

func TestRegexShareSportsPage(t *testing.T) {
	g := FromResult(trace(t, sportsPage(), 1512))
	share := g.RegexShare()
	if share < 0.2 || share > 0.55 {
		t.Fatalf("sports regex share = %.2f, want ~0.4", share)
	}
}

func TestNetworkScale(t *testing.T) {
	g := FromResult(trace(t, sportsPage(), 1512))
	base := g.EPLT(EvalOptions{EffectiveRate: 1512e6})
	slowNet := g.EPLT(EvalOptions{EffectiveRate: 1512e6, NetworkScale: 3})
	if slowNet <= base {
		t.Fatal("scaling network durations should increase ePLT")
	}
}

func TestEPLTPanicsWithoutRate(t *testing.T) {
	g := &Graph{}
	defer func() {
		if recover() == nil {
			t.Error("EPLT without rate did not panic")
		}
	}()
	g.EPLT(EvalOptions{})
}

func TestOffloadPanicsWithoutDSP(t *testing.T) {
	g := FromResult(trace(t, sportsPage(), 1512))
	defer func() {
		if recover() == nil {
			t.Error("Offload without DSP did not panic")
		}
	}()
	g.EPLT(EvalOptions{EffectiveRate: 1e9, Offload: true})
}

func TestEmptyGraph(t *testing.T) {
	g := &Graph{}
	st := g.CriticalPath()
	if st.Total != 0 || len(st.NodeIDs) != 0 {
		t.Fatal("empty graph should yield empty stats")
	}
	if g.RegexShare() != 0 {
		t.Fatal("empty graph regex share should be 0")
	}
}

func TestGraphJSONRoundTrip(t *testing.T) {
	g := FromResult(trace(t, sportsPage(), 1512))
	var buf strings.Builder
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != len(g.Nodes) {
		t.Fatalf("node count %d != %d", len(back.Nodes), len(g.Nodes))
	}
	for i, n := range g.Nodes {
		if p, q := n.Profile, back.Nodes[i].Profile; (p == nil) != (q == nil) ||
			p != nil && (p.Ops != q.Ops || p.StrBytes != q.StrBytes || p.Regex != q.Regex) {
			t.Fatalf("node %d profile %+v read back as %+v", i, p, q)
		}
	}
	// Replayed analyses must match the original graph's.
	origPath := g.CriticalPath()
	backPath := back.CriticalPath()
	if (origPath.Total - backPath.Total).Abs() > time.Millisecond {
		t.Fatalf("critical path drifted: %v vs %v", origPath.Total, backPath.Total)
	}
	for _, rate := range []float64{384e6, 1512e6} {
		a := g.EPLT(EvalOptions{EffectiveRate: rate})
		b := back.EPLT(EvalOptions{EffectiveRate: rate})
		if (a - b).Abs() > 2*time.Millisecond {
			t.Fatalf("ePLT drifted at %.0f: %v vs %v", rate, a, b)
		}
	}
	// Offload pricing survives the round trip (profiles preserved).
	s := sim.New()
	d := dsp.New(s, dsp.Config{})
	a := g.EPLT(EvalOptions{EffectiveRate: 1512e6, Offload: true, DSP: d})
	b := back.EPLT(EvalOptions{EffectiveRate: 1512e6, Offload: true, DSP: d})
	if (a - b).Abs() > 2*time.Millisecond {
		t.Fatalf("offload ePLT drifted: %v vs %v", a, b)
	}
	if back.RegexShare() <= 0 {
		t.Fatal("regex profiles lost in round trip")
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"version": 3, "nodes": []}`,
		`{"version": 2, "nodes": [{"id": 5}]}`,
		`{"version": 2, "nodes": [{"id": 0, "deps": [3]}]}`,
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("ReadJSON(%q) succeeded, want error", c)
		}
	}
}

// TestReadJSONRefusesVersion1: a version 1 export listed every regex call;
// it is refused with a hint to re-export rather than read as zero regex work.
func TestReadJSONRefusesVersion1(t *testing.T) {
	v1 := `{"version": 1, "nodes": [{"id": 0, "kind": "script", "ops": 10,
		"regex_calls": [{"Pattern": "a", "InputLen": 3, "BTSteps": 4, "PikeSteps": 5}]}]}`
	_, err := ReadJSON(strings.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "re-export") {
		t.Fatalf("ReadJSON(version 1) = %v, want a re-export error", err)
	}
}
