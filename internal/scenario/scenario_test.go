package scenario_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/scenario"
)

// runScenario runs a parsed scenario the way engine.Compose plans it: the
// scenario's runner is resolved privately under its RegistryID and
// executed through runner.Run, never through the global registry.
func runScenario(t *testing.T, s *scenario.Scenario, cfg experiments.Config) *experiments.Table {
	t.Helper()
	id, fn := s.RegistryID(), s.Runner()
	res, err := runner.Run(context.Background(), []string{id}, cfg, runner.Options{
		Resolve: func(q string) (experiments.Runner, bool) { return fn, q == id },
	})
	if err != nil {
		t.Fatalf("run %s: %v", id, err)
	}
	if res[0].Err != nil {
		t.Fatalf("run %s: %v", id, res[0].Err)
	}
	return res[0].Table
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func loadScenario(t *testing.T, file string) *scenario.Scenario {
	t.Helper()
	s, err := scenario.Load(file)
	if err != nil {
		t.Fatalf("load %s: %v", file, err)
	}
	return s
}

// TestSweepFilesMatchFigures is the golden equivalence test: each checked-in
// sweep scenario compiles to the sweep its figure runs, so it reproduces
// that figure's table byte for byte — same systems, same seeds, same
// formatting. iperf_sweep.json is the file-based form of the Fig. 6 clock
// sweep.
func TestSweepFilesMatchFigures(t *testing.T) {
	for _, tc := range []struct {
		file, fig string
		cfg       experiments.Config
	}{
		{"testdata/web_sweep.json", "fig3a", experiments.Config{Pages: 2}},
		{"testdata/video_sweep.json", "fig4a", experiments.Config{}},
		{"testdata/iperf_sweep.json", "fig6", experiments.Config{}},
	} {
		t.Run(tc.fig, func(t *testing.T) {
			want, err := experiments.Run(tc.fig, tc.cfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.fig, err)
			}
			got := runScenario(t, loadScenario(t, tc.file), tc.cfg)
			if got.String() != want.String() {
				t.Fatalf("%s diverges from %s:\n--- %s ---\n%s\n--- scenario ---\n%s",
					tc.file, tc.fig, tc.fig, want.String(), got.String())
			}
			if got.CSV() != want.CSV() {
				t.Fatalf("%s CSV diverges from %s:\n%s\nvs\n%s", tc.file, tc.fig, want.CSV(), got.CSV())
			}
		})
	}
}

// TestDurationOverridesMatchFigures checks each per-kind duration override:
// a scenario setting clip_s, call_s or iperf_s renders the same table as the
// matching figure run with that duration in its Config.
func TestDurationOverridesMatchFigures(t *testing.T) {
	const clocks = `[384, 486, 594, 702, 810, 918, 1026, 1134, 1242, 1350, 1458, 1512]`
	cases := []struct {
		fig, workload string
		cfg           experiments.Config
	}{
		{"fig4a", `{"kind":"video","clip_s":12}`, experiments.Config{ClipDuration: 12 * time.Second}},
		{"fig5a", `{"kind":"call","call_s":6}`, experiments.Config{CallDuration: 6 * time.Second}},
		{"fig6", `{"kind":"iperf","iperf_s":1.5}`, experiments.Config{IperfDuration: 1500 * time.Millisecond}},
	}
	for _, c := range cases {
		t.Run(c.fig, func(t *testing.T) {
			want, err := experiments.Run(c.fig, c.cfg)
			if err != nil {
				t.Fatalf("%s: %v", c.fig, err)
			}
			doc := fmt.Sprintf(`{"name":"x","id":%q,"title":%q,"device":"nexus4","workload":%s,"axis":{"param":"clock_mhz","values":%s},"notes":%s}`,
				c.fig, want.Title, c.workload, clocks, mustJSON(t, want.Notes))
			s, err := scenario.Parse([]byte(doc))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if got := runScenario(t, s, experiments.Config{}); got.String() != want.String() {
				t.Fatalf("scenario with %s diverges from %s:\n--- %s ---\n%s\n--- scenario ---\n%s",
					c.workload, c.fig, c.fig, want.String(), got.String())
			}
		})
	}
}

// TestScenarioMultiTrialMerges checks a scenario behaves like a built-in
// under the trial machinery: trials derive distinct seeds and merge.
func TestScenarioMultiTrialMerges(t *testing.T) {
	tab := runScenario(t, loadScenario(t, "testdata/web_sweep.json"), experiments.Config{Pages: 1, Trials: 2})
	if len(tab.Rows) == 0 {
		t.Fatal("merged scenario table has no rows")
	}
	// Merged multi-trial tables grow aggregate columns.
	if len(tab.Columns) <= 2 {
		t.Fatalf("expected merged trial columns, got %v", tab.Columns)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]},"bogus":1}`,
		"trailing data":     `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]}} {}`,
		"trailing brace":    `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]}}}`,
		"trailing bracket":  `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]}}]`,
		"bad name":          `{"name":"Not A Slug","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]}}`,
		"missing title":     `{"name":"x","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]}}`,
		"bad workload":      `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"fax"},"axis":{"param":"clock_mhz","values":[384]}}`,
		"stray clip_s":      `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page","clip_s":9},"axis":{"param":"clock_mhz","values":[384]}}`,
		"unknown device":    `{"name":"x","title":"t","device":"iphone","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]}}`,
		"missing device":    `{"name":"x","title":"t","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]}}`,
		"bad axis param":    `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"voltage","values":[1]}}`,
		"empty axis":        `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz"}}`,
		"negative value":    `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[-1]}}`,
		"fractional cores":  `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"cores","values":[1.5]}}`,
		"bad governor":      `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"governor","names":["TURBO"]}}`,
		"bad network":       `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"network","names":["5g"]}}`,
		"device axis clash": `{"name":"x","title":"t","device":"nexus4","devices":["pixel2"],"workload":{"kind":"page"},"axis":{"param":"device"}}`,
		"axis vs fixed":     `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]},"config":{"clock_mhz":1512}}`,
		"negative trials":   `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]},"trials":-1}`,
	}
	for label, in := range cases {
		if _, err := scenario.Parse([]byte(in)); err == nil {
			t.Errorf("%s: Parse accepted %s", label, in)
		}
	}
}

func TestParseAcceptsAllAxes(t *testing.T) {
	cases := []string{
		`{"name":"a","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384,1512]}}`,
		`{"name":"b","title":"t","device":"nexus4","workload":{"kind":"video","clip_s":30},"axis":{"param":"cores","values":[1,2,4]}}`,
		`{"name":"c","title":"t","device":"nexus4","workload":{"kind":"call","call_s":10},"axis":{"param":"ram_mb","values":[512,1024]}}`,
		`{"name":"d","title":"t","device":"nexus4","workload":{"kind":"iperf","iperf_s":5},"axis":{"param":"governor","names":["PF","PW"]}}`,
		`{"name":"e","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"network","names":["lan","lte","3g"]}}`,
		`{"name":"f","title":"t","devices":["nexus4","pixel2"],"workload":{"kind":"page"},"axis":{"param":"device"}}`,
		`{"name":"g","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]},"config":{"governor":"PF","cores":2,"ram_mb":1024,"network":"lte"}}`,
	}
	for _, in := range cases {
		s, err := scenario.Parse([]byte(in))
		if err != nil {
			t.Errorf("Parse rejected %s: %v", in, err)
			continue
		}
		// Expansion must produce one point per axis value and consistent rows.
		r := s.Runner()
		if r == nil {
			t.Errorf("%s: nil runner", s.Name)
		}
	}
}

func TestLoadResolvesFaultPlanPath(t *testing.T) {
	dir := t.TempDir()
	plan := dir + "/plan.json"
	if err := writeFile(plan, `{"faults":[{"kind":"burst-loss","at_ms":100,"dur_ms":500}]}`); err != nil {
		t.Fatal(err)
	}
	sc := dir + "/s.json"
	body := `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]},"fault_plan":"plan.json"}`
	if err := writeFile(sc, body); err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Load(sc)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if s.FaultPlan != plan {
		t.Fatalf("FaultPlan = %q, want %q (resolved against the scenario dir)", s.FaultPlan, plan)
	}
	if !strings.HasPrefix(s.RegistryID(), "scenario:") {
		t.Fatalf("registry id %q not namespaced", s.RegistryID())
	}
}

// TestLoadKeepsBuiltinFaultPlans: built-in plan names are not paths, so
// Load leaves them as written.
func TestLoadKeepsBuiltinFaultPlans(t *testing.T) {
	dir := t.TempDir()
	for _, ref := range []string{"default", "none"} {
		sc := dir + "/" + ref + ".json"
		body := `{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]},"fault_plan":"` + ref + `"}`
		if err := writeFile(sc, body); err != nil {
			t.Fatal(err)
		}
		s, err := scenario.Load(sc)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if s.FaultPlan != ref {
			t.Fatalf("FaultPlan = %q, want %q", s.FaultPlan, ref)
		}
	}
}
