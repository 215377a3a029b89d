package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobileqoe/internal/scenario"
)

const minimalSpec = `{
	"name": "mini",
	"population": 10,
	"device_mix": [{"device": "pixel2", "weight": 1}],
	"workloads": [{"kind": "page", "weight": 1}]
}`

func TestParseDefaults(t *testing.T) {
	s, err := Parse([]byte(minimalSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards != 1 || s.Seed != 1 || s.Pages != 6 {
		t.Errorf("defaults: shards=%d seed=%d pages=%d, want 1/1/6", s.Shards, s.Seed, s.Pages)
	}
	if len(s.Networks) != 1 || s.Networks[0].Name != "lan" {
		t.Errorf("networks default = %+v, want [{lan 1}]", s.Networks)
	}
	if len(s.FaultPlans) != 1 || s.FaultPlans[0].Plan != "none" {
		t.Errorf("fault_plans default = %+v, want [{none 1}]", s.FaultPlans)
	}
	if len(s.SourceSHA256) != 64 {
		t.Errorf("SourceSHA256 = %q, want 64 hex chars", s.SourceSHA256)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{"unknown field", `{"name":"x","population":1,"typo":1,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"page","weight":1}]}`, "typo"},
		{"trailing data", minimalSpec + `{"again":true}`, "trailing data"},
		{"trailing brace", minimalSpec + `}`, "trailing data"},
		{"trailing bracket", minimalSpec + `]`, "trailing data"},
		{"bad name", `{"name":"Bad Name","population":1,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"page","weight":1}]}`, "slug"},
		{"zero population", `{"name":"x","population":0,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"page","weight":1}]}`, "population"},
		{"shards beyond population", `{"name":"x","population":3,"shards":4,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"page","weight":1}]}`, "shards"},
		{"shards beyond cap", `{"name":"x","population":1000000000000,"shards":1000000000000,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"page","weight":1}]}`, "shards"},
		{"population beyond cap", `{"name":"x","population":9000000000000000000,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"page","weight":1}]}`, "population"},
		{"misspelled workload field", `{"name":"x","population":1,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"video","weight":1,"clip":2}]}`, "clip"},
		{"pages beyond catalog", `{"name":"x","population":1,"pages":51,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"page","weight":1}]}`, "pages"},
		{"no devices", `{"name":"x","population":1,"device_mix":[],"workloads":[{"kind":"page","weight":1}]}`, "device_mix"},
		{"unknown device", `{"name":"x","population":1,"device_mix":[{"device":"iphone","weight":1}],"workloads":[{"kind":"page","weight":1}]}`, "unknown device"},
		{"duplicate device", `{"name":"x","population":1,"device_mix":[{"device":"pixel2","weight":1},{"device":"pixel2","weight":2}],"workloads":[{"kind":"page","weight":1}]}`, "duplicate device"},
		{"zero weight", `{"name":"x","population":1,"device_mix":[{"device":"pixel2","weight":0}],"workloads":[{"kind":"page","weight":1}]}`, "weight"},
		{"huge weight", `{"name":"x","population":1,"device_mix":[{"device":"pixel2","weight":2097152}],"workloads":[{"kind":"page","weight":1}]}`, "weight"},
		{"unknown network", `{"name":"x","population":1,"device_mix":[{"device":"pixel2","weight":1}],"networks":[{"name":"5g","weight":1}],"workloads":[{"kind":"page","weight":1}]}`, "unknown network"},
		{"unknown workload", `{"name":"x","population":1,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"game","weight":1}]}`, "workload kind"},
		{"duplicate workload", `{"name":"x","population":1,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"page","weight":1},{"kind":"page","weight":2}]}`, "duplicate workload"},
		{"clip_s on page", `{"name":"x","population":1,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"page","weight":1,"clip_s":5}]}`, "clip_s"},
		{"call_s on iperf", `{"name":"x","population":1,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"iperf","weight":1,"call_s":5}]}`, "call_s"},
		{"negative duration", `{"name":"x","population":1,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"video","weight":1,"clip_s":-1}]}`, "positive"},
		{"empty plan", `{"name":"x","population":1,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"page","weight":1}],"fault_plans":[{"plan":"","weight":1}]}`, "plan"},
		{"duplicate plan", `{"name":"x","population":1,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"page","weight":1}],"fault_plans":[{"plan":"none","weight":1},{"plan":"none","weight":1}]}`, "duplicate fault plan"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.json))
			if err == nil {
				t.Fatal("Parse accepted an invalid spec")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestWorkloadSharedByBothDecoders feeds the same workload objects to the
// scenario and the fleet decoders, which share experiments.Workload: each
// malformed one must be rejected by both, and the well-formed one accepted
// by both.
func TestWorkloadSharedByBothDecoders(t *testing.T) {
	decode := func(w string) (scErr, flErr error) {
		_, scErr = scenario.Parse([]byte(fmt.Sprintf(
			`{"name":"x","title":"t","device":"nexus4","workload":%s,"axis":{"param":"clock_mhz","values":[384]}}`, w)))
		weighted := strings.Replace(w, "{", `{"weight":1,`, 1)
		_, flErr = Parse([]byte(fmt.Sprintf(
			`{"name":"x","population":1,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[%s]}`, weighted)))
		return scErr, flErr
	}
	for _, w := range []string{
		`{"kind":"fax"}`,
		`{"kind":""}`,
		`{"kind":"video","clip":2}`,
		`{"kind":"page","clip_s":5}`,
		`{"kind":"video","call_s":5}`,
		`{"kind":"call","iperf_s":5}`,
		`{"kind":"iperf","clip_s":5}`,
		`{"kind":"video","clip_s":-1}`,
	} {
		if scErr, flErr := decode(w); scErr == nil || flErr == nil {
			t.Errorf("workload %s: scenario err=%v, fleet err=%v; want both rejected", w, scErr, flErr)
		}
	}
	if scErr, flErr := decode(`{"kind":"video","clip_s":5}`); scErr != nil || flErr != nil {
		t.Errorf("valid workload: scenario err=%v, fleet err=%v", scErr, flErr)
	}
}

func TestLoadResolvesPlanPaths(t *testing.T) {
	dir := t.TempDir()
	spec := `{
		"name": "paths",
		"population": 1,
		"device_mix": [{"device": "pixel2", "weight": 1}],
		"workloads": [{"kind": "page", "weight": 1}],
		"fault_plans": [
			{"plan": "none", "weight": 1},
			{"plan": "plans/chaos.json", "weight": 1},
			{"plan": "/abs/chaos.json", "weight": 1}
		]
	}`
	path := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.FaultPlans[1].Plan, filepath.Join(dir, "plans", "chaos.json"); got != want {
		t.Errorf("relative plan path = %q, want %q", got, want)
	}
	if s.FaultPlans[0].Plan != "none" || s.FaultPlans[2].Plan != "/abs/chaos.json" {
		t.Errorf("none/absolute plan paths were rewritten: %+v", s.FaultPlans)
	}
}

// TestTupleSeedPinned pins the seed schedule. If this test fails, the
// change invalidates every existing checkpoint: bump SeedScheduleDoc so
// resume refuses them, and only then update these constants.
func TestTupleSeedPinned(t *testing.T) {
	cases := []struct {
		seed, i, want uint64
	}{
		{1, 0, 0x910a2dec89025cc1},
		{1, 1, 0xbeeb8da1658eec67},
		{1, 2, 0xf893a2eefb32555e},
		{7, 0, 0x63cbe1e459320dd7},
		{7, 41, 0xeb7a07aacd555fc9},
		{3735928559, 999, 0x89425e84566f3c44},
	}
	for _, c := range cases {
		if got := TupleSeed(c.seed, c.i); got != c.want {
			t.Errorf("TupleSeed(%d, %d) = 0x%016x, want 0x%016x", c.seed, c.i, got, c.want)
		}
	}
}

func TestTupleSeedDisperses(t *testing.T) {
	seen := map[uint64]bool{}
	for _, seed := range []uint64{1, 7, 1 << 40} {
		for i := uint64(0); i < 10000; i++ {
			s := TupleSeed(seed, i)
			if seen[s] {
				t.Fatalf("collision at seed=%d i=%d (0x%x)", seed, i, s)
			}
			seen[s] = true
		}
	}
}

func TestShardRangePartitions(t *testing.T) {
	for _, c := range []struct{ pop, shards int }{
		{1, 1}, {10, 1}, {10, 3}, {10, 10}, {48, 7}, {1000, 13},
	} {
		covered := 0
		prevEnd := 0
		for k := 0; k < c.shards; k++ {
			start, end := ShardRange(c.pop, c.shards, k)
			if start != prevEnd {
				t.Fatalf("pop=%d shards=%d: shard %d starts at %d, want %d", c.pop, c.shards, k, start, prevEnd)
			}
			if end < start {
				t.Fatalf("pop=%d shards=%d: shard %d range [%d,%d) inverted", c.pop, c.shards, k, start, end)
			}
			covered += end - start
			prevEnd = end
		}
		if prevEnd != c.pop || covered != c.pop {
			t.Fatalf("pop=%d shards=%d: partition covers %d ending at %d", c.pop, c.shards, covered, prevEnd)
		}
	}
}

func TestCompileSamplesEveryAxis(t *testing.T) {
	spec, err := Parse([]byte(fmt.Sprintf(`{
		"name": "mix",
		"population": 400,
		"seed": 11,
		"pages": 3,
		"device_mix": [{"device": "pixel2", "weight": 3}, {"device": "intex", "weight": 1}],
		"networks": [{"name": "lte", "weight": 1}, {"name": "3g", "weight": 1}],
		"workloads": [{"kind": "page", "weight": 2}, {"kind": "iperf", "weight": 1, "iperf_s": 0.5}],
		"fault_plans": [{"plan": "none", "weight": 1}]
	}`)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sh := newShardResult(0, 0, spec.Population)
	for i := 0; i < spec.Population; i++ {
		r.runTuple(i, sh)
	}
	if sh.Tuples != spec.Population {
		t.Fatalf("ran %d tuples, want %d", sh.Tuples, spec.Population)
	}
	for axis, labels := range map[string][]string{
		"device":   {"pixel2", "intex"},
		"network":  {"lte", "3g"},
		"workload": {"page", "iperf"},
	} {
		for _, label := range labels {
			if sh.Counts[axis][label] == 0 {
				t.Errorf("axis %s label %s was never sampled in %d tuples: %v", axis, label, spec.Population, sh.Counts[axis])
			}
		}
	}
	// The heavier device should dominate ~3:1.
	if p, i := sh.Counts["device"]["pixel2"], sh.Counts["device"]["intex"]; p <= i {
		t.Errorf("weight 3 device drew %d <= weight 1 device %d", p, i)
	}
	if sh.Aggs["page.plt_ms"] == nil || sh.Aggs["iperf.throughput_mbps"] == nil {
		t.Errorf("expected metrics for both workloads, got %v", metricNames(sh))
	}
}

func metricNames(sh *ShardResult) []string {
	var out []string
	for k := range sh.Aggs {
		out = append(out, k)
	}
	return out
}
