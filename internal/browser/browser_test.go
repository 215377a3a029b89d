package browser

import (
	"sort"
	"testing"
	"time"

	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/mem"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/units"
	"mobileqoe/internal/webpage"
)

// loadCfg describes one simulated load.
type loadCfg struct {
	spec     device.Spec
	governor cpu.GovernorKind
	usFreq   units.Freq
	cores    int            // 0 = all
	ram      units.ByteSize // 0 = spec RAM
}

func load(t *testing.T, page *webpage.Page, lc loadCfg) (Result, *cpu.CPU) {
	t.Helper()
	s := sim.New()
	ccfg := cpu.FromSpec(lc.spec, lc.governor)
	ccfg.UserspaceFreq = lc.usFreq
	c := cpu.New(s, ccfg)
	if lc.cores > 0 {
		c.SetOnlineCores(lc.cores)
	}
	n := netsim.New(s, c, netsim.Config{ChargeCPU: true})
	ram := lc.ram
	if ram == 0 {
		ram = lc.spec.RAM
	}
	m := mem.New(mem.Config{RAM: ram})
	var res Result
	fired := false
	Load(Config{Sim: s, CPU: c, Net: n, Mem: m}, page, func(r Result) {
		res = r
		fired = true
		c.Stop()
	})
	s.RunUntil(10 * time.Minute)
	c.Stop()
	s.Run()
	if !fired {
		t.Fatalf("load never completed (outstanding work stuck)")
	}
	return res, c
}

func newsPage() *webpage.Page { return webpage.Generate("news-bt.example", webpage.News, 21) }

func nexus4At(mhz float64) loadCfg {
	return loadCfg{spec: device.Nexus4(), governor: cpu.Userspace, usFreq: units.MHz(mhz)}
}

func TestPLTPlausibleAtFullClock(t *testing.T) {
	res, _ := load(t, newsPage(), nexus4At(1512))
	if res.PLT < 2*time.Second || res.PLT > 8*time.Second {
		t.Fatalf("PLT at 1512 MHz = %v, want ~3-6s (paper Fig. 3a)", res.PLT)
	}
	if len(res.Activities) < 50 {
		t.Fatalf("only %d activities recorded", len(res.Activities))
	}
}

func TestClockSweepReproducesFig3a(t *testing.T) {
	// Fig 3a: PLT grows ~4-5x from 1512 MHz to 384 MHz.
	high, _ := load(t, newsPage(), nexus4At(1512))
	low, _ := load(t, newsPage(), nexus4At(384))
	ratio := float64(low.PLT) / float64(high.PLT)
	if ratio < 3.0 || ratio > 5.5 {
		t.Fatalf("384/1512 PLT ratio = %.2f (low=%v high=%v), want ~4x", ratio, low.PLT, high.PLT)
	}
}

func TestCoreSweepModestReproducesFig3c(t *testing.T) {
	// Fig 3c: dropping 4 cores to 1 changes PLT only modestly because the
	// browser concentrates work on the main thread.
	cfg := nexus4At(1512)
	four, _ := load(t, newsPage(), cfg)
	cfg.cores = 1
	one, _ := load(t, newsPage(), cfg)
	ratio := float64(one.PLT) / float64(four.PLT)
	if ratio < 1.02 || ratio > 1.9 {
		t.Fatalf("1-core/4-core PLT ratio = %.2f (1:%v 4:%v), want modest (~1.1-1.6)",
			ratio, one.PLT, four.PLT)
	}
}

func TestMemorySqueezeReproducesFig3b(t *testing.T) {
	// Fig 3b: ~2x PLT at 512 MB vs 2 GB.
	cfg := nexus4At(1512)
	cfg.ram = 2 * units.GB
	big, _ := load(t, newsPage(), cfg)
	cfg.ram = 512 * units.MB
	small, _ := load(t, newsPage(), cfg)
	ratio := float64(small.PLT) / float64(big.PLT)
	if ratio < 1.4 || ratio > 2.8 {
		t.Fatalf("512MB/2GB PLT ratio = %.2f, want ~2x", ratio)
	}
}

func TestGovernorsReproduceFig3d(t *testing.T) {
	plt := map[cpu.GovernorKind]time.Duration{}
	for _, gov := range cpu.Governors() {
		cfg := loadCfg{spec: device.Nexus4(), governor: gov}
		res, _ := load(t, newsPage(), cfg)
		plt[gov] = res.PLT
	}
	// Powersave is the outlier (~+50% or worse vs performance).
	if r := float64(plt[cpu.Powersave]) / float64(plt[cpu.Performance]); r < 1.3 {
		t.Fatalf("powersave/performance = %.2f, want >= 1.3 (paper ~1.5)", r)
	}
	// The dynamic governors land within ~2.2x of performance.
	for _, g := range []cpu.GovernorKind{cpu.Interactive, cpu.Ondemand} {
		r := float64(plt[g]) / float64(plt[cpu.Performance])
		if r < 0.95 || r > 2.2 {
			t.Fatalf("%s/performance = %.2f, want near 1", g, r)
		}
	}
}

func TestBrowserUsesAtMostTwoCoresWorth(t *testing.T) {
	// Paper: "only two of the cores are utilized irrespective of the number
	// of cores available".
	_, c := load(t, newsPage(), nexus4At(1512))
	busy := c.CoreBusy()
	sort.Slice(busy, func(i, j int) bool { return busy[i] > busy[j] })
	var total time.Duration
	for _, b := range busy {
		total += b
	}
	top2 := busy[0] + busy[1]
	if float64(top2)/float64(total) < 0.8 {
		t.Fatalf("top-2 cores carry only %.0f%% of busy time", 100*float64(top2)/float64(total))
	}
}

func TestDeviceSweepReproducesFig2a(t *testing.T) {
	// Fig 2a: PLT correlates with device cost; Intex ≈5x Pixel2, Gionee ≈3x;
	// the Pixel2 beats the pricier S6-edge (big.LITTLE outlier).
	page := newsPage()
	plt := map[string]time.Duration{}
	for _, spec := range device.Catalog() {
		res, _ := load(t, page, loadCfg{spec: spec, governor: cpu.Performance})
		plt[spec.Name] = res.PLT
	}
	intex, gionee, pixel2 := plt["Intex Amaze+"], plt["Gionee F103"], plt["Google Pixel2"]
	s6 := plt["Galaxy S6-edge"]
	if r := float64(intex) / float64(pixel2); r < 3.4 || r > 7 {
		t.Fatalf("Intex/Pixel2 = %.2f (%v vs %v), want ~5x", r, intex, pixel2)
	}
	if r := float64(gionee) / float64(pixel2); r < 2.0 || r > 4.5 {
		t.Fatalf("Gionee/Pixel2 = %.2f, want ~3x", r)
	}
	if pixel2 >= s6 {
		t.Fatalf("Pixel2 (%v) should beat S6-edge (%v) — the paper's outlier", pixel2, s6)
	}
	// Overall cost correlation: cheapest is worst, most capable is best.
	if intex <= plt["Google Nexus4"] || plt["Google Nexus4"] <= pixel2 {
		t.Fatalf("cost/performance ordering broken: %v", plt)
	}
}

func TestNewsSlowerThanHealth(t *testing.T) {
	// §3.1: news/sports pages degrade most because they script most.
	news, _ := load(t, newsPage(), nexus4At(384))
	health, _ := load(t, webpage.Generate("health-bt.example", webpage.Health, 21), nexus4At(384))
	if news.PLT <= health.PLT {
		t.Fatalf("news (%v) should be slower than health (%v)", news.PLT, health.PLT)
	}
}

func TestActivitiesWellFormed(t *testing.T) {
	page := newsPage()
	res, _ := load(t, page, nexus4At(810))
	kinds := map[ActivityKind]int{}
	for i, a := range res.Activities {
		if a.ID != i {
			t.Fatalf("activity %d has ID %d", i, a.ID)
		}
		if a.End < a.Start {
			t.Fatalf("activity %s ends before it starts", a.Name)
		}
		for _, d := range a.Deps {
			if d < 0 || d >= len(res.Activities) {
				t.Fatalf("activity %s has dangling dep %d", a.Name, d)
			}
			if res.Activities[d].End > a.End {
				t.Fatalf("dep %d of %s finishes after the activity itself", d, a.Name)
			}
		}
		kinds[a.Kind]++
	}
	for _, k := range []ActivityKind{Fetch, Parse, Script, Style, Decode, Layout, Paint} {
		if kinds[k] == 0 {
			t.Fatalf("no %s activities recorded", k)
		}
	}
	if kinds[Layout] < 1 || kinds[Paint] != 1 {
		t.Fatalf("need reflows/layout and exactly one paint: %v", kinds)
	}
	// All page resources were fetched.
	if kinds[Fetch] != len(page.Resources)+1 {
		t.Fatalf("fetched %d, want %d resources + document", kinds[Fetch], len(page.Resources))
	}
}

func TestScriptingShareOfCompute(t *testing.T) {
	// §3.1: scripting accounts for ~51-60% of compute time.
	res, _ := load(t, newsPage(), nexus4At(1512))
	var script, main time.Duration
	for _, a := range res.Activities {
		if a.Kind == Script {
			script += a.Duration()
		}
		if a.MainThread {
			main += a.Duration()
		}
	}
	share := float64(script) / float64(main)
	if share < 0.45 || share > 0.70 {
		t.Fatalf("scripting share = %.2f, want ~0.5-0.6", share)
	}
}

func TestNetworkAblationChargeCPU(t *testing.T) {
	// With free packet processing, the clock hurts less: the ratio between
	// 384 and 1512 MHz shrinks.
	run := func(charge bool, mhz float64) time.Duration {
		s := sim.New()
		ccfg := cpu.FromSpec(device.Nexus4(), cpu.Userspace)
		ccfg.UserspaceFreq = units.MHz(mhz)
		c := cpu.New(s, ccfg)
		n := netsim.New(s, c, netsim.Config{ChargeCPU: charge})
		var res Result
		Load(Config{Sim: s, CPU: c, Net: n}, newsPage(), func(r Result) { res = r; c.Stop() })
		s.RunUntil(10 * time.Minute)
		c.Stop()
		s.Run()
		return res.PLT
	}
	withCharge := float64(run(true, 384)) / float64(run(true, 1512))
	without := float64(run(false, 384)) / float64(run(false, 1512))
	if without >= withCharge {
		t.Fatalf("charging packet CPU should amplify the clock effect: %v vs %v", withCharge, without)
	}
}
