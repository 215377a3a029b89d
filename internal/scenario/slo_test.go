package scenario

import (
	"fmt"
	"strings"
	"testing"

	"mobileqoe/internal/trace"
)

func sloScenario(slo string) string {
	return fmt.Sprintf(`{
		"name": "slo-test", "title": "SLO test", "device": "nexus4",
		"workload": {"kind": "page"},
		"axis": {"param": "clock_mhz", "values": [600]},
		"slo": %s
	}`, slo)
}

func TestSLOParseAndValidate(t *testing.T) {
	s, err := Parse([]byte(sloScenario(
		`{"sim.virtual_ms": {"p99_lt_ms": 5000}, "fault.recovered": {"eq_injected": true}}`)))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(s.SLO) != 2 || s.SLO["sim.virtual_ms"].P99LtMS == nil || *s.SLO["sim.virtual_ms"].P99LtMS != 5000 {
		t.Fatalf("SLO = %+v", s.SLO)
	}
	bad := []struct {
		slo  string
		want string
	}{
		{`{"sim.virtual_ms": {}}`, "no clauses"},
		{`{"sim.virtual_ms": {"p50_lt_ms": -1}}`, "must be positive"},
		{`{"fault.recovered": {"eq_injected": false}}`, "must be true"},
		{`{"": {"p99_lt_ms": 1}}`, "must not be empty"},
		{`{"sim.virtual_ms": {"p42_lt_ms": 1}}`, "unknown field"},
	}
	for _, c := range bad {
		if _, err := Parse([]byte(sloScenario(c.slo))); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(slo=%s) = %v, want error containing %q", c.slo, err, c.want)
		}
	}
}

// cellReg builds a registry resembling one completed cell.
func cellReg(virtualMS float64, injected, recovered int) *trace.Metrics {
	m := trace.NewMetrics()
	m.Counter("sim.virtual_ms").Add(virtualMS)
	m.Counter("fault.injected").Add(float64(injected))
	m.Counter("fault.recovered").Add(float64(recovered))
	for _, v := range []float64{100, 200, 400} {
		m.Histogram("browser.plt_ms").Observe(v)
	}
	return m
}

func TestWatchdogTripsOncePerRule(t *testing.T) {
	thr, eq := 5000.0, true
	w := NewWatchdog(map[string]Rule{
		"sim.virtual_ms":  {P99LtMS: &thr},
		"fault.recovered": {EqInjected: &eq},
	})
	// Cell 0: healthy. Cell 1: slow and leaks a fault — the equality rule
	// trips immediately, but with 2 samples the p99 rank estimate still sits
	// in the fast bucket. Cell 2: slow again — the p99 estimate crosses.
	// Cell 3: same — every rule already tripped, so no further alerts.
	alerts := 0
	if got := w.ObserveCell(0, "fig3a", 0, cellReg(100, 1, 1)); len(got) != 0 {
		t.Fatalf("healthy cell alerted: %+v", got)
	}
	got := w.ObserveCell(1, "fig3a", 1, cellReg(30000, 2, 1))
	alerts += len(got)
	if len(got) != 1 {
		t.Fatalf("alerts = %+v, want eq_injected only", got)
	}
	if got[0].Metric != "fault.recovered" || got[0].Rule != "eq_injected" ||
		got[0].Value != 1 || got[0].Threshold != 2 || got[0].CellIndex != 1 {
		t.Fatalf("eq alert = %+v", got[0])
	}
	got = w.ObserveCell(2, "fig3a", 0, cellReg(30000, 2, 1))
	alerts += len(got)
	if len(got) != 1 {
		t.Fatalf("alerts = %+v, want p99 only (eq already tripped)", got)
	}
	if got[0].Metric != "sim.virtual_ms" || got[0].Rule != "p99_lt_ms" ||
		got[0].Threshold != 5000 || got[0].Value < 5000 || got[0].N != 3 ||
		got[0].CellID != "fig3a" || got[0].CellIndex != 2 {
		t.Fatalf("p99 alert = %+v", got[0])
	}
	if got := w.ObserveCell(3, "fig3a", 1, cellReg(30000, 2, 1)); len(got) != 0 {
		t.Fatalf("re-alerted: %+v", got)
	}
	if alerts != 2 {
		t.Fatalf("%d alerts, want 2", alerts)
	}
}

func TestWatchdogHistogramSketchMerge(t *testing.T) {
	thr := 300.0
	w := NewWatchdog(map[string]Rule{"browser.plt_ms": {MaxLtMS: &thr}})
	got := w.ObserveCell(0, "x", 0, cellReg(1, 0, 0))
	if len(got) != 1 || got[0].Rule != "max_lt_ms" || got[0].Value != 400 || got[0].N != 3 {
		t.Fatalf("alerts = %+v, want max_lt_ms at 400 over 3 obs", got)
	}
	// Every registry histogram is a sketch, so a plain registry's histogram
	// trips the rule too.
	w2 := NewWatchdog(map[string]Rule{"browser.plt_ms": {MaxLtMS: &thr}})
	m := trace.NewMetrics()
	m.Histogram("browser.plt_ms").Observe(9999)
	if got := w2.ObserveCell(0, "x", 0, m); len(got) != 1 || got[0].Rule != "max_lt_ms" || got[0].Value != 9999 || got[0].N != 1 {
		t.Fatalf("alerts = %+v, want max_lt_ms at 9999 over 1 obs", got)
	}
}

func TestWatchdogNilAndAbsent(t *testing.T) {
	if w := NewWatchdog(nil); w != nil {
		t.Fatal("empty slo should build a nil watchdog")
	}
	var w *Watchdog
	if got := w.ObserveCell(0, "x", 0, cellReg(1, 0, 0)); got != nil {
		t.Fatalf("nil watchdog alerted: %+v", got)
	}
	// A watched metric absent from every registry never alerts.
	thr := 1.0
	w2 := NewWatchdog(map[string]Rule{"no.such_metric": {P50LtMS: &thr}})
	if got := w2.ObserveCell(0, "x", 0, cellReg(50, 0, 0)); len(got) != 0 {
		t.Fatalf("absent metric alerted: %+v", got)
	}
	// And observing must not have created it in the cell registry.
	reg := cellReg(50, 0, 0)
	before := len(reg.Names())
	w2.ObserveCell(1, "x", 1, reg)
	if len(reg.Names()) != before {
		t.Fatal("watchdog grew the cell registry")
	}
}
