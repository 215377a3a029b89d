package fleet

import (
	"context"
	"testing"

	"mobileqoe/internal/experiments"
)

// TestFaultFreeTupleIgnoresSeed guards the memo's premise: without a fault
// plan, a tuple's outcome is fixed by its device, network, workload entry
// and page, whatever its tuple seed. If the seed ever reached a fault-free
// system (netsim's loss draws, say), memoized tuples would record another
// tuple's outcome.
func TestFaultFreeTupleIgnoresSeed(t *testing.T) {
	s, err := Parse([]byte(`{
		"name": "purity",
		"population": 1,
		"seed": 3,
		"pages": 2,
		"device_mix": [{"device": "pixel2", "weight": 1}, {"device": "intex", "weight": 1}],
		"networks": [{"name": "lte", "weight": 1}, {"name": "3g", "weight": 1}],
		"workloads": [
			{"kind": "page", "weight": 1},
			{"kind": "video", "weight": 1, "clip_s": 2},
			{"kind": "iperf", "weight": 1, "iperf_s": 1},
			{"kind": "call", "weight": 1, "call_s": 2}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for dev, d := range s.DeviceMix {
		for net, n := range s.Networks {
			for wl, w := range s.Workloads {
				k := tupleKey{dev: dev, net: net, wl: wl, page: -1}
				if w.Kind == experiments.KindPage {
					k.page = 1
				}
				a := r.simulate(TupleSeed(s.Seed, 0), k, nil)
				b := r.simulate(TupleSeed(s.Seed, 1), k, nil)
				if a.errClass != "" || a.n == 0 {
					t.Fatalf("%s/%s/%s: outcome %+v, want observations", d.Device, n.Name, w.Kind, a)
				}
				if a != b {
					t.Errorf("%s/%s/%s: outcome depends on the tuple seed:\n%+v\n%+v", d.Device, n.Name, w.Kind, a, b)
				}
			}
		}
	}
}

// benchSpecJSON is the benchmark's fleet spec at seed 1: 480 tuples in 24
// shards over the 50-page corpus.
const benchSpecJSON = `{
	"name": "bench",
	"population": 480,
	"shards": 24,
	"seed": 1,
	"pages": 50,
	"device_mix": [{"device": "pixel2", "weight": 3}, {"device": "intex", "weight": 1}],
	"networks": [{"name": "lte", "weight": 2}, {"name": "3g", "weight": 1}],
	"workloads": [
		{"kind": "page", "weight": 3},
		{"kind": "video", "weight": 1, "clip_s": 2},
		{"kind": "iperf", "weight": 1, "iperf_s": 1},
		{"kind": "call", "weight": 1, "call_s": 2}
	],
	"fault_plans": [{"plan": "none", "weight": 3}, {"plan": "default", "weight": 1}]
}`

// TestSimulationCounts pins how many tuples a sequential run simulates:
// every faulted tuple, plus one per distinct fault-free key.
func TestSimulationCounts(t *testing.T) {
	ci, err := Load("testdata/fleet_ci.json")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := Parse([]byte(benchSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec       *Spec
		sims, keys int
	}{
		{ci, 35, 15},
		{bench, 234, 116},
	} {
		t.Run(tc.spec.Name, func(t *testing.T) {
			r, err := tc.spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			res := Run(context.Background(), r, nil, Options{Parallel: 1})
			if res.Failed != 0 || res.Merged.Tuples != tc.spec.Population {
				t.Fatalf("run: failed=%d tuples=%d of %d", res.Failed, res.Merged.Tuples, tc.spec.Population)
			}
			if got := r.Simulations(); got != int64(tc.sims) {
				t.Errorf("simulated %d of %d tuples, want %d", got, tc.spec.Population, tc.sims)
			}
			if len(r.memo) != tc.keys {
				t.Errorf("%d distinct fault-free keys, want %d", len(r.memo), tc.keys)
			}
		})
	}
}

// BenchmarkFleetCI runs fleet_ci.json sequentially on a freshly compiled
// Runner per op, as qoesim -fleet does, and reports the simulations each
// run made.
func BenchmarkFleetCI(b *testing.B) {
	s, err := Load("testdata/fleet_ci.json")
	if err != nil {
		b.Fatal(err)
	}
	var sims int64
	for i := 0; i < b.N; i++ {
		r, err := s.Compile()
		if err != nil {
			b.Fatal(err)
		}
		if res := Run(context.Background(), r, nil, Options{Parallel: 1}); res.Failed != 0 {
			b.Fatalf("fleet_ci: %v", res.Failures)
		}
		sims += r.Simulations()
	}
	perOp := float64(sims) / float64(b.N)
	b.ReportMetric(perOp, "sims/op")
	if perOp != 35 {
		b.Fatalf("sims/op = %g, want 35", perOp)
	}
}
