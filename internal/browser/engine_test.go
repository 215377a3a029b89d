package browser

import (
	"testing"
	"time"

	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/units"
)

func loadWithEngine(t *testing.T, e Engine, mhz float64) Result {
	t.Helper()
	s := sim.New()
	ccfg := cpu.FromSpec(device.Nexus4(), cpu.Userspace)
	ccfg.UserspaceFreq = units.MHz(mhz)
	c := cpu.New(s, ccfg)
	n := netsim.New(s, c, netsim.Config{ChargeCPU: true})
	var res Result
	fired := false
	Load(Config{Sim: s, CPU: c, Net: n, Engine: e}, newsPage(), func(r Result) {
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

func TestZeroEngineIsChrome(t *testing.T) {
	var zero Engine
	if zero.orDefault().Name != "chrome63" {
		t.Fatal("zero engine should default to Chrome 63")
	}
	implicit := loadWithEngine(t, Engine{}, 1512)
	explicit := loadWithEngine(t, Chrome63, 1512)
	if implicit.PLT != explicit.PLT {
		t.Fatalf("zero-value engine differs from Chrome: %v vs %v", implicit.PLT, explicit.PLT)
	}
}

func TestFirefoxQualitativelySame(t *testing.T) {
	// The paper: Firefox and Opera Mini have "qualitatively the same
	// experience" — for Firefox that means similar PLT and similar clock
	// sensitivity.
	cHi := loadWithEngine(t, Chrome63, 1512)
	fHi := loadWithEngine(t, Firefox57, 1512)
	if r := float64(fHi.PLT) / float64(cHi.PLT); r < 0.8 || r > 1.4 {
		t.Fatalf("Firefox/Chrome PLT ratio = %.2f, want ~1", r)
	}
	cLo := loadWithEngine(t, Chrome63, 384)
	fLo := loadWithEngine(t, Firefox57, 384)
	cSlow := float64(cLo.PLT) / float64(cHi.PLT)
	fSlow := float64(fLo.PLT) / float64(fHi.PLT)
	if diff := fSlow/cSlow - 1; diff < -0.25 || diff > 0.25 {
		t.Fatalf("clock sensitivity differs qualitatively: chrome %.2fx vs firefox %.2fx", cSlow, fSlow)
	}
}

func TestOperaMiniSidestepsTheClock(t *testing.T) {
	// Proxy rendering moves scripting off the phone: Opera Mini is both
	// faster and far less clock-sensitive.
	oHi := loadWithEngine(t, OperaMini, 1512)
	oLo := loadWithEngine(t, OperaMini, 384)
	cHi := loadWithEngine(t, Chrome63, 1512)
	cLo := loadWithEngine(t, Chrome63, 384)
	if oHi.PLT >= cHi.PLT {
		t.Fatalf("Opera Mini should be faster: %v vs %v", oHi.PLT, cHi.PLT)
	}
	oSlow := float64(oLo.PLT) / float64(oHi.PLT)
	cSlow := float64(cLo.PLT) / float64(cHi.PLT)
	if oSlow >= cSlow*0.8 {
		t.Fatalf("Opera Mini should feel the clock much less: %.2fx vs %.2fx", oSlow, cSlow)
	}
}

func TestEnginesListsAll(t *testing.T) {
	es := Engines()
	if len(es) != 3 {
		t.Fatalf("got %d engines", len(es))
	}
	names := map[string]bool{}
	for _, e := range es {
		names[e.Name] = true
	}
	for _, want := range []string{"chrome63", "firefox57", "operamini"} {
		if !names[want] {
			t.Fatalf("missing engine %s", want)
		}
	}
}
