package runner_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"mobileqoe/internal/fault"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/trace"
)

// TestFaultedRunsAreDeterministic is the fault-plane determinism regression:
// with the default fault plan attached, a fixed seed must produce
// byte-identical tables, metrics registries, and per-cell exported traces
// whether the cells run sequentially or on a worker pool. Two full
// independent runs compare equal, which also covers repeatability.
func TestFaultedRunsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted determinism sweep")
	}
	// One experiment per simulated subsystem (web, video, call, iperf, DSP,
	// lossy-link streaming) rather than the whole registry: the per-system
	// injector seeding is position-stable, so determinism holds or breaks
	// identically across ids, and the full suite already runs faulted in
	// the profile invariant sweep. Keeping this list short keeps the
	// package under the test-binary timeout with -race.
	ids := []string{"fig3d", "fig4a", "fig5b", "fig6", "text-regex", "abl-prefetch"}

	run := func(parallel int) (map[string]string, map[string]string, map[string][]byte) {
		tracers := map[string]*trace.Tracer{}
		cfg := tiny()
		cfg.Trials = 2
		cfg.Metrics = true
		cfg.Faults = fault.Default()
		res, err := runner.Run(context.Background(), ids, cfg, runner.Options{Parallel: parallel,
			Trace: true, Progress: func(ev runner.Event) {
				tracers[fmt.Sprintf("%s/%d", ev.ID, ev.Trial)] = ev.Trace
			}})
		if err != nil {
			t.Fatal(err)
		}
		tables := map[string]string{}
		metrics := map[string]string{}
		for _, r := range res {
			if r.Err != nil {
				t.Fatalf("%s under faults: %v", r.ID, r.Err)
			}
			tables[r.ID] = r.Table.String()
			metrics[r.ID] = r.Table.Metrics.Table()
		}
		exported := map[string][]byte{}
		for key, tr := range tracers {
			var b bytes.Buffer
			if err := tr.WriteJSON(&b); err != nil {
				t.Fatalf("exporting trace %s: %v", key, err)
			}
			exported[key] = b.Bytes()
		}
		return tables, metrics, exported
	}

	seqTab, seqMet, seqTr := run(1)
	parTab, parMet, parTr := run(8)

	for _, id := range ids {
		if seqTab[id] != parTab[id] {
			t.Errorf("%s: faulted table differs parallel vs sequential:\n--- sequential ---\n%s--- parallel ---\n%s",
				id, seqTab[id], parTab[id])
		}
		if seqMet[id] != parMet[id] {
			t.Errorf("%s: faulted metrics registry differs parallel vs sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				id, seqMet[id], parMet[id])
		}
	}
	if len(seqTr) != len(parTr) {
		t.Fatalf("trace cell counts differ: seq=%d par=%d", len(seqTr), len(parTr))
	}
	for key, want := range seqTr {
		got, ok := parTr[key]
		if !ok {
			t.Errorf("parallel run exported no trace for cell %s", key)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s: exported trace differs parallel vs sequential (%d vs %d bytes)",
				key, len(want), len(got))
		}
	}
}
