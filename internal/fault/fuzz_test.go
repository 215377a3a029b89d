package fault_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"mobileqoe/internal/fault"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/stats"
)

// FuzzFaultPlanParse fuzzes the plan decoder (mirroring rex's
// FuzzCompileMatch: seed with the real corpus, assert invariants on whatever
// survives parsing). A plan ParsePlan accepts must:
//
//   - be valid JSON (no trailing bytes after the plan object);
//   - validate (ParsePlan already validated it — Validate must agree);
//   - round-trip through json.Marshal and parse back to an equal plan
//     (parameter defaults resolve at query time, so encoding is lossless);
//   - build an injector that replays to completion without panicking,
//     deterministically (two replays at one seed give equal window counts).
func FuzzFaultPlanParse(f *testing.F) {
	if b, err := json.Marshal(fault.Default()); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"faults":[{"kind":"burst-loss","at_ms":100,"dur_ms":500}]}`))
	f.Add([]byte(`{"name":"x","faults":[{"kind":"rtt-spike","at_ms":0,"dur_ms":1,"add_rtt_ms":10}]}`))
	f.Add([]byte(`{"faults":[{"kind":"conn-reset","at_ms":5,"dur_ms":5,"prob":0.5},{"kind":"mem-kill","at_ms":1,"dur_ms":1}]}`))
	f.Add([]byte(`{"faults":[]}`))
	f.Add([]byte(`{"faults":[{"kind":"nope","at_ms":0,"dur_ms":1}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"faults":[]}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := fault.ParsePlan(data)
		if err != nil {
			return // rejected input: nothing further to hold
		}
		if !json.Valid(data) {
			t.Fatalf("ParsePlan accepted invalid JSON %q", data)
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("ParsePlan accepted a plan Validate rejects: %v", verr)
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan does not re-marshal: %v", err)
		}
		p2, err := fault.ParsePlan(out)
		if err != nil {
			t.Fatalf("round-tripped plan rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip changed the plan:\n%+v\nvs\n%+v", p, p2)
		}
		if len(p.Faults) > 64 {
			t.Skip("replay too large for the fuzz budget")
		}
		for _, sp := range p.Faults {
			if sp.AtMs+sp.DurMs > 1e7 {
				t.Skip("window beyond the replay horizon")
			}
		}
		count := func(seed uint64) int {
			s := sim.New()
			inj := fault.NewInjector(s, p, stats.NewRNG(seed), nil, 0, nil)
			opened := 0
			for _, k := range fault.Kinds() {
				inj.OnFault(k, func() { opened++ })
			}
			s.Run()
			return opened
		}
		if a, b := count(42), count(42); a != b {
			t.Fatalf("replay at one seed opened %d then %d windows", a, b)
		}
	})
}
