package runner_test

import (
	"bytes"
	"context"
	"testing"

	"mobileqoe/internal/runner"
)

// runExemplars executes a small multi-experiment sweep with top-K trace
// retention under the given worker count and returns the collector.
func runExemplars(t *testing.T, k, parallel int) *runner.Exemplars {
	t.Helper()
	cfg := quick()
	cfg.Trials = 2
	cfg.Metrics = true
	ex := runner.NewExemplars(k, "sim.virtual_ms")
	// fig99 is unknown: its cells fail, and failed cells must never be
	// retained as exemplars.
	_, err := runner.Run(context.Background(), []string{"fig3d", "fig99", "abl-hwdecoder"}, cfg,
		runner.Options{Parallel: parallel, Trace: true, Progress: ex.Observe})
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestExemplarsDeterministicAcrossParallel pins the tentpole contract: the
// retained set — metadata and full trace bytes — is identical whether the run
// used 1 worker or 8, because top-K by (value desc, index asc) is a pure
// function of the observed set, not of completion order.
func TestExemplarsDeterministicAcrossParallel(t *testing.T) {
	const k = 3
	seq := runExemplars(t, k, 1)
	par := runExemplars(t, k, 8)
	a, b := seq.Kept(), par.Kept()
	if len(a) != k || len(b) != k {
		t.Fatalf("kept %d and %d cells, want %d (4 ok cells ran)", len(a), len(b), k)
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].ID != b[i].ID || a[i].Trial != b[i].Trial ||
			a[i].Seed != b[i].Seed || a[i].Value != b[i].Value {
			t.Fatalf("rank %d differs across worker counts:\nseq: %+v\npar: %+v", i, a[i], b[i])
		}
		if i > 0 && (a[i].Value > a[i-1].Value ||
			(a[i].Value == a[i-1].Value && a[i].Index < a[i-1].Index)) {
			t.Fatalf("rank order violated at %d: %+v after %+v", i, a[i], a[i-1])
		}
		var ja, jb bytes.Buffer
		if err := a[i].Tracer.WriteJSON(&ja); err != nil {
			t.Fatal(err)
		}
		if err := b[i].Tracer.WriteJSON(&jb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
			t.Fatalf("rank %d trace bytes differ across worker counts (%d vs %d bytes)",
				i, ja.Len(), jb.Len())
		}
		if a[i].Tracer.Len() == 0 {
			t.Fatalf("rank %d retained an empty trace", i)
		}
	}
}

// TestExemplarsMemoryBoundedByK pins the memory bound: after the run drains,
// the collector references at most K tracers — evicted and failed cells'
// traces are released, not accumulated.
func TestExemplarsMemoryBoundedByK(t *testing.T) {
	ex := runExemplars(t, 1, 4)
	kept := ex.Kept()
	if len(kept) != 1 || kept[0].Value <= 0 {
		t.Fatalf("kept = %+v, want the single worst cell", kept)
	}
	if ex.Metric() != "sim.virtual_ms" {
		t.Fatalf("metric = %q", ex.Metric())
	}
}
