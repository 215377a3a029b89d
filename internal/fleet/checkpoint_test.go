package fleet

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobileqoe/internal/strictjson"
)

func cpSpec(t *testing.T) *Spec {
	t.Helper()
	s, err := Parse([]byte(`{
		"name": "cp",
		"population": 8,
		"shards": 4,
		"pages": 2,
		"device_mix": [{"device": "pixel2", "weight": 1}],
		"workloads": [{"kind": "page", "weight": 1}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runCheckpointed runs the whole fleet into dir and returns the results.
func runCheckpointed(t *testing.T, dir string, spec *Spec) *RunResult {
	t.Helper()
	r, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Create(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(context.Background(), r, nil, Options{Parallel: 1, OnComplete: cp.WriteShard})
	if res.Failed != 0 || res.Interrupted {
		t.Fatalf("run: failed=%d interrupted=%v", res.Failed, res.Interrupted)
	}
	return res
}

func TestCreateRefusesExistingManifest(t *testing.T) {
	dir := t.TempDir()
	spec := cpSpec(t)
	if _, err := Create(dir, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, spec); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("second Create = %v, want a refusal mentioning -resume", err)
	}
}

func TestOpenRestoresAllShards(t *testing.T) {
	dir := t.TempDir()
	spec := cpSpec(t)
	runCheckpointed(t, dir, spec)
	_, restored, warnings, err := Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("warnings: %v", warnings)
	}
	if len(restored) != spec.Shards {
		t.Fatalf("restored %d shards, want %d", len(restored), spec.Shards)
	}
	for k, sh := range restored {
		start, end := ShardRange(spec.Population, spec.Shards, k)
		if sh.Start != start || sh.End != end || sh.Tuples != end-start {
			t.Errorf("shard %d restored range [%d,%d) tuples=%d, want [%d,%d)", k, sh.Start, sh.End, sh.Tuples, start, end)
		}
	}
}

func TestOpenSkipsCorruptShard(t *testing.T) {
	dir := t.TempDir()
	spec := cpSpec(t)
	runCheckpointed(t, dir, spec)
	// Torn write: truncate shard 1 mid-record, as a kill -9 without atomic
	// rename would leave it.
	path := filepath.Join(dir, "shard_0001.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, restored, warnings, err := Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "re-run shard 1") {
		t.Fatalf("warnings = %v, want one re-run notice for shard 1", warnings)
	}
	if restored[1] != nil || len(restored) != spec.Shards-1 {
		t.Fatalf("restored %d shards incl shard1=%v, want shard 1 dropped", len(restored), restored[1] != nil)
	}
}

func TestOpenSkipsWrongRangeShard(t *testing.T) {
	dir := t.TempDir()
	spec := cpSpec(t)
	runCheckpointed(t, dir, spec)
	// A shard file copied to the wrong slot must not be merged as shard 0.
	data, err := os.ReadFile(filepath.Join(dir, "shard_0003.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard_0000.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, restored, warnings, err := Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 1 || restored[0] != nil {
		t.Fatalf("warnings=%v restored0=%v, want shard 0 rejected", warnings, restored[0] != nil)
	}
}

func TestOpenIgnoresTempDebris(t *testing.T) {
	dir := t.TempDir()
	spec := cpSpec(t)
	runCheckpointed(t, dir, spec)
	// A crashed atomic write leaves a *.tmp* file; it must be invisible.
	if err := os.WriteFile(filepath.Join(dir, "shard_0002.json.tmp123"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, restored, warnings, err := Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 || len(restored) != spec.Shards {
		t.Fatalf("warnings=%v restored=%d, temp debris leaked in", warnings, len(restored))
	}
	shards, err := filepath.Glob(filepath.Join(dir, "shard_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != spec.Shards {
		t.Errorf("shard files = %v, want %d entries (tmp ignored)", shards, spec.Shards)
	}
}

func TestOpenRefusesIncompatible(t *testing.T) {
	dir := t.TempDir()
	spec := cpSpec(t)
	runCheckpointed(t, dir, spec)

	t.Run("different spec bytes", func(t *testing.T) {
		other := cpSpec(t)
		other.SourceSHA256 = strings.Repeat("0", 64)
		if _, _, _, err := Open(dir, other); err == nil || !strings.Contains(err.Error(), "different spec") {
			t.Fatalf("err = %v, want spec-mismatch refusal", err)
		}
	})
	t.Run("different shard count", func(t *testing.T) {
		other := cpSpec(t)
		other.Shards = 2
		if _, _, _, err := Open(dir, other); err == nil || !strings.Contains(err.Error(), "shards") {
			t.Fatalf("err = %v, want shard-count refusal", err)
		}
	})
	t.Run("different seed", func(t *testing.T) {
		other := cpSpec(t)
		other.Seed = 99
		if _, _, _, err := Open(dir, other); err == nil || !strings.Contains(err.Error(), "does not match") {
			t.Fatalf("err = %v, want manifest-mismatch refusal", err)
		}
	})
	t.Run("no manifest", func(t *testing.T) {
		if _, _, _, err := Open(t.TempDir(), spec); err == nil || !strings.Contains(err.Error(), "manifest") {
			t.Fatalf("err = %v, want missing-manifest error", err)
		}
	})
}

func TestRunStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := cpSpec(t)
	cp, err := Create(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.WriteState(RunState{Status: "interrupted", Completed: 3, Restored: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, stateName))
	if err != nil {
		t.Fatal(err)
	}
	var st RunState
	if err := strictjson.Decode(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "interrupted" || st.Completed != 3 || st.Restored != 1 {
		t.Errorf("state round-trip = %+v", st)
	}
}

func TestWriteFinalMatchesFinalBytes(t *testing.T) {
	dir := t.TempDir()
	spec := cpSpec(t)
	res := runCheckpointed(t, dir, spec)
	cp := &Checkpoint{dir: dir, spec: spec}
	if err := cp.WriteFinal(res.Merged); err != nil {
		t.Fatal(err)
	}
	want, err := FinalBytes(spec, res.Merged)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "final.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("final.json on disk differs from FinalBytes")
	}
}
