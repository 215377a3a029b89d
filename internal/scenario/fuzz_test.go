package scenario_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"mobileqoe/internal/scenario"
)

// writeFile is a tiny helper shared with the path-resolution test.
func writeFile(path, body string) error {
	return os.WriteFile(path, []byte(body), 0o644)
}

// FuzzScenarioParse fuzzes the strict scenario decoder (mirroring
// FuzzFaultPlanParse: seed with the real corpus, assert invariants on
// whatever survives parsing). A scenario Parse accepts must:
//
//   - be valid JSON (no trailing bytes after the scenario object);
//   - validate (Parse already validated it — Validate must agree);
//   - round-trip through json.Marshal and parse back to a scenario that
//     re-marshals identically (the schema carries no lossy defaults; an
//     explicit empty list and an absent one are the same scenario, so the
//     comparison is on the canonical marshaled form, not DeepEqual);
//   - expand to a table skeleton without panicking: a runner exists and the
//     header has one axis column plus the workload's metric columns.
func FuzzScenarioParse(f *testing.F) {
	for _, file := range []string{"testdata/web_sweep.json", "testdata/video_sweep.json", "testdata/iperf_sweep.json"} {
		if b, err := os.ReadFile(file); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(`{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]}}`))
	f.Add([]byte(`{"name":"d","title":"t","devices":["nexus4","pixel2"],"workload":{"kind":"call"},"axis":{"param":"device"}}`))
	f.Add([]byte(`{"name":"g","title":"t","device":"s6edge","workload":{"kind":"iperf","iperf_s":5},"axis":{"param":"governor","names":["PF","PW"]},"config":{"network":"lte"},"trials":3}`))
	f.Add([]byte(`{"name":"bad","axis":{"param":"voltage"}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"name":"x","title":"t","device":"nexus4","workload":{"kind":"page"},"axis":{"param":"clock_mhz","values":[384]}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := scenario.Parse(data)
		if err != nil {
			return // rejected input: nothing further to hold
		}
		if !json.Valid(data) {
			t.Fatalf("Parse accepted invalid JSON %q", data)
		}
		if verr := s.Validate(); verr != nil {
			t.Fatalf("Parse accepted a scenario Validate rejects: %v", verr)
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted scenario does not re-marshal: %v", err)
		}
		s2, err := scenario.Parse(out)
		if err != nil {
			t.Fatalf("round-tripped scenario rejected: %v\n%s", err, out)
		}
		out2, err := json.Marshal(s2)
		if err != nil {
			t.Fatalf("round-tripped scenario does not re-marshal: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("round trip changed the scenario:\n%s\nvs\n%s", out, out2)
		}
		if s.Runner() == nil {
			t.Fatal("validated scenario compiled to a nil runner")
		}
	})
}
