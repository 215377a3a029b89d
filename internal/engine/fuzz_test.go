package engine

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// FuzzEngineRequest holds the served request path — ParseRequest, then
// Compose without local-file access — to its contract on arbitrary bytes:
// never panic; accept only valid JSON; an accepted plan carries a 64-hex-digit cache key, runs at
// least one page per web measurement and at most MaxCells cells; and the
// same bytes always compose to the same key.
func FuzzEngineRequest(f *testing.F) {
	for _, req := range []Request{
		{Experiment: "fig3a", Seed: 7, CSV: true},
		{Experiment: "all"},
		{Experiment: "fig99"},
		{Experiment: "fig3a", Scenario: scenarioDoc("x")},
		{ScenarioPath: "web.json"},
		{FleetPath: "fleet.json"},
		{Scenario: json.RawMessage(`{"name": 3}`)},
		{Scenario: scenarioDoc("keyed"), Seed: 5, Trials: 2, Pages: 2, TimeoutS: 9},
		{Scenario: scenarioDoc("full"), Full: true, Pages: 3},
		{Fleet: fleetDoc},
		{Experiment: "fig3a", Pages: -1},
		{Experiment: "table1", Trials: 1_000_000_000_000},
		{Fleet: hugeFleetDoc},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, c := range []struct{ field, path string }{
		{"scenario", "../scenario/testdata/web_sweep.json"},
		{"fleet", "../fleet/testdata/fleet_ci.json"},
	} {
		doc, err := os.ReadFile(c.path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(`{"` + c.field + `": ` + string(doc) + `, "seed": 3}`))
	}
	f.Add([]byte(`{"experiment": "table1", "timeout_s": 1e300}`))
	f.Add([]byte(`{"experiment": "all"} {}`))
	f.Add([]byte(`{"experiment": "fig3a"}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		key := func() (string, bool) {
			req, err := ParseRequest(data)
			if err != nil {
				return "", false
			}
			if !json.Valid(data) {
				t.Fatalf("ParseRequest accepted invalid JSON %q", data)
			}
			p, err := Compose(*req, ComposeOptions{})
			if err != nil {
				return "", false
			}
			norm := p.Cfg.WithDefaults()
			if norm.Pages < 1 {
				t.Fatalf("accepted plan runs %d pages", norm.Pages)
			}
			if cells := len(p.IDs) * norm.Trials; cells > MaxCells {
				t.Fatalf("accepted plan has %d cells, above MaxCells %d", cells, MaxCells)
			}
			return p.Key, true
		}
		k1, ok1 := key()
		k2, ok2 := key()
		if ok1 != ok2 || k1 != k2 {
			t.Fatalf("same bytes composed twice: (%q, %v) then (%q, %v)", k1, ok1, k2, ok2)
		}
		if !ok1 {
			return
		}
		if b, err := hex.DecodeString(k1); err != nil || len(b) != 32 {
			t.Fatalf("accepted plan has key %q, want 64 hex digits", k1)
		}
	})
}
