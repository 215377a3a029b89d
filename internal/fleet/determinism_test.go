package fleet

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// detSpecJSON exercises every axis: all four workload kinds, two devices,
// two networks, and fault injection on a quarter of the population. Shards
// is deliberately absent — tests override it the way -fleet-shards does,
// so the spec bytes (and SourceSHA256) stay identical across shardings.
const detSpecJSON = `{
	"name": "det",
	"population": 60,
	"seed": 7,
	"pages": 4,
	"device_mix": [{"device": "pixel2", "weight": 3}, {"device": "intex", "weight": 1}],
	"networks": [{"name": "lte", "weight": 2}, {"name": "3g", "weight": 1}],
	"workloads": [
		{"kind": "page", "weight": 4},
		{"kind": "video", "weight": 2, "clip_s": 2},
		{"kind": "call", "weight": 1, "call_s": 2},
		{"kind": "iperf", "weight": 1, "iperf_s": 1}
	],
	"fault_plans": [{"plan": "none", "weight": 3}, {"plan": "default", "weight": 1}]
}`

func detSpec(t *testing.T, shards int) *Spec {
	t.Helper()
	s, err := Parse([]byte(detSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	s.Shards = shards
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestKillResumeByteIdentical is the package's reason to exist: a run
// interrupted mid-flight and resumed in a fresh supervisor (round-tripping
// every completed shard through the on-disk checkpoint encoding) must
// produce the same final table string and the same canonical final.json
// bytes as an uninterrupted single-shard run — for every shard count and
// -parallel setting tried.
func TestKillResumeByteIdentical(t *testing.T) {
	base := detSpec(t, 1)
	r, err := base.Compile()
	if err != nil {
		t.Fatal(err)
	}
	baseline := Run(context.Background(), r, nil, Options{Parallel: 1})
	if baseline.Failed != 0 || baseline.Interrupted {
		t.Fatalf("baseline run: failed=%d interrupted=%v failures=%v", baseline.Failed, baseline.Interrupted, baseline.Failures)
	}
	if baseline.Merged.Tuples != base.Population {
		t.Fatalf("baseline merged %d tuples, want %d", baseline.Merged.Tuples, base.Population)
	}
	wantTable := baseline.Merged.Table(base).String()
	wantFinal, err := FinalBytes(base, baseline.Merged)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{4, 7} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d_parallel=%d", shards, par), func(t *testing.T) {
				spec := detSpec(t, shards)
				rs, err := spec.Compile()
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				cp, err := Create(dir, spec)
				if err != nil {
					t.Fatal(err)
				}

				// Phase 1: run until the supervisor self-interrupts after two
				// fresh completions — the deterministic stand-in for a kill.
				res1 := Run(context.Background(), rs, nil, Options{
					Parallel: par, StopAfter: 2, OnComplete: cp.WriteShard,
				})
				if res1.Failed != 0 {
					t.Fatalf("phase 1 failures: %v", res1.Failures)
				}
				if par == 1 && !res1.Interrupted {
					// Sequential + StopAfter < shards is deterministic.
					t.Fatalf("phase 1 (parallel=1) did not interrupt: completed=%d of %d", res1.Completed, shards)
				}
				if !res1.Interrupted {
					// Parallel workers may all have finished their shard
					// before observing the cancel; the resume below then
					// restores everything — still a full checkpoint
					// round-trip of the merge.
					t.Logf("phase 1 completed all %d shards before the interrupt landed", res1.Completed)
				}

				// Phase 2: a "new process" — fresh spec parse, fresh runner,
				// restore from disk, run to completion.
				spec2 := detSpec(t, shards)
				rs2, err := spec2.Compile()
				if err != nil {
					t.Fatal(err)
				}
				cp2, restored, warnings, err := Open(dir, spec2)
				if err != nil {
					t.Fatal(err)
				}
				if len(warnings) != 0 {
					t.Fatalf("unexpected checkpoint warnings: %v", warnings)
				}
				if len(restored) != res1.Completed {
					t.Fatalf("restored %d shards, phase 1 checkpointed %d", len(restored), res1.Completed)
				}
				res2 := Run(context.Background(), rs2, restored, Options{
					Parallel: par, OnComplete: cp2.WriteShard,
				})
				if res2.Interrupted || res2.Failed != 0 {
					t.Fatalf("phase 2: interrupted=%v failures=%v", res2.Interrupted, res2.Failures)
				}
				if res2.Restored != len(restored) || res2.Restored+res2.Completed != shards {
					t.Fatalf("phase 2 accounting: restored=%d completed=%d shards=%d", res2.Restored, res2.Completed, shards)
				}

				if got := res2.Merged.Table(spec2).String(); got != wantTable {
					t.Errorf("resumed table differs from 1-shard baseline:\n--- want ---\n%s--- got ---\n%s", wantTable, got)
				}
				gotFinal, err := FinalBytes(spec2, res2.Merged)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotFinal, wantFinal) {
					t.Errorf("resumed final.json bytes differ from 1-shard baseline\nwant %d bytes: %s\ngot %d bytes: %s",
						len(wantFinal), wantFinal, len(gotFinal), gotFinal)
				}

				// Merge order cannot matter: fold the shards in reverse.
				rev := make([]*ShardResult, len(res2.Results))
				for i, sh := range res2.Results {
					rev[len(rev)-1-i] = sh
				}
				revFinal, err := FinalBytes(spec2, MergeShards(rev))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(revFinal, wantFinal) {
					t.Error("reverse-order merge produced different final bytes")
				}

				// Workers share each runner's outcome memo. Every outcome
				// the two phases memoized must be the sequential run's,
				// and together they must cover its fault-free keys.
				seen := map[tupleKey]bool{}
				for _, m := range []map[tupleKey]outcome{rs.memo, rs2.memo} {
					for k, out := range m {
						if want, ok := r.memo[k]; !ok || out != want {
							t.Errorf("memo key %+v: outcome %+v, sequential run has %+v (present %v)", k, out, want, ok)
						}
						seen[k] = true
					}
				}
				if len(seen) != len(r.memo) {
					t.Errorf("phases memoized %d distinct keys, sequential run %d", len(seen), len(r.memo))
				}
			})
		}
	}
}
