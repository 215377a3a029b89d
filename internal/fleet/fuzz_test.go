package fleet

import (
	"encoding/json"
	"testing"
)

// FuzzFleetSpecParse holds Parse to its contract on arbitrary bytes: never
// panic, never accept invalid JSON, and never return a spec that violates
// its own invariants.
func FuzzFleetSpecParse(f *testing.F) {
	f.Add([]byte(minimalSpec))
	f.Add([]byte(detSpecJSON))
	f.Add([]byte(`{"name":"x","population":3,"shards":4}`))
	f.Add([]byte(`{"name":"x","population":1,"device_mix":[{"device":"pixel2","weight":0}]}`))
	f.Add([]byte(`{"name":"x","population":1000000000000,"shards":1000000000000,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"page","weight":1}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(minimalSpec + `}`))
	f.Add([]byte(`{"name":"x","population":1,"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"video","weight":1,"clip_s":1e308}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("Parse accepted invalid JSON %q", data)
		}
		if s.Shards < 1 || s.Shards > s.Population || s.Shards > maxShards {
			t.Fatalf("accepted spec with shards=%d population=%d", s.Shards, s.Population)
		}
		if s.Pages < 0 || s.Pages > 50 {
			t.Fatalf("accepted spec with pages=%d", s.Pages)
		}
		if len(s.DeviceMix) == 0 || len(s.Workloads) == 0 || len(s.Networks) == 0 || len(s.FaultPlans) == 0 {
			t.Fatalf("accepted spec with an empty axis: %+v", s)
		}
		if len(s.SourceSHA256) != 64 {
			t.Fatalf("SourceSHA256 = %q", s.SourceSHA256)
		}
		// The partition must cover the population for any accepted spec.
		if _, end := ShardRange(s.Population, s.Shards, s.Shards-1); end != s.Population {
			t.Fatalf("partition ends at %d, population %d", end, s.Population)
		}
	})
}
