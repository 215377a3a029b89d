package runner_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/trace"
)

// collectStream runs ids under the given worker count and returns the Stream
// event sequence. Streams need no locking by contract (serialized on the
// collecting goroutine); appending without a mutex doubles as a race-detector
// check of that claim.
func collectStream(t *testing.T, ids []string, parallel int) []runner.Event {
	t.Helper()
	cfg := quick()
	cfg.Trials = 2
	cfg.Metrics = true
	var stream []runner.Event
	_, err := runner.Run(context.Background(), ids, cfg, runner.Options{
		Parallel: parallel,
		Stream:   func(ev runner.Event) { stream = append(stream, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// TestStreamDeterministic pins the Options.Stream ordering/determinism
// contract: the event sequence is identical across worker counts in every
// field except Elapsed.
func TestStreamDeterministic(t *testing.T) {
	// fig99 is unknown, so the middle experiment's cells all fail — the
	// contract covers error cells too.
	ids := []string{"fig3d", "fig99", "abl-hwdecoder"}
	seq := collectStream(t, ids, 1)
	par := collectStream(t, ids, 8)
	const trials = 2
	if len(seq) != len(ids)*trials || len(par) != len(seq) {
		t.Fatalf("stream lengths: seq=%d par=%d want %d", len(seq), len(par), len(ids)*trials)
	}
	for i := range seq {
		s, p := seq[i], par[i]
		// Cell order is experiment-major, trial-minor.
		if s.Index != i || s.Done != i+1 || s.Total != len(seq) ||
			s.ID != ids[i/trials] || s.Trial != i%trials {
			t.Fatalf("event %d out of order: %+v", i, s)
		}
		if p.Index != s.Index || p.Done != s.Done || p.Total != s.Total ||
			p.ID != s.ID || p.Trial != s.Trial || p.Seed != s.Seed || p.Attempt != s.Attempt {
			t.Fatalf("event %d differs across worker counts:\nseq: %+v\npar: %+v", i, s, p)
		}
		if fmt.Sprint(s.Err) != fmt.Sprint(p.Err) {
			t.Fatalf("event %d errors differ: %v vs %v", i, s.Err, p.Err)
		}
		switch {
		case s.Err != nil:
			if s.Table != nil || p.Table != nil {
				t.Fatalf("event %d: failed cell carries a table", i)
			}
		default:
			if s.Table == nil || p.Table == nil {
				t.Fatalf("event %d: completed cell missing its table", i)
			}
			if s.Table.String() != p.Table.String() {
				t.Fatalf("event %d: cell tables differ across worker counts", i)
			}
			if s.Table.Metrics == nil {
				t.Fatalf("event %d: Metrics requested but cell registry missing", i)
			}
			if got, want := s.Table.Metrics.Table(), p.Table.Metrics.Table(); got != want {
				t.Fatalf("event %d: cell registries differ across worker counts:\n%s\nvs\n%s",
					i, got, want)
			}
			// Per-cell virtual time is part of the deterministic class.
			if v := s.Table.Metrics.Counter("sim.virtual_ms").Value(); v <= 0 {
				t.Fatalf("event %d: sim.virtual_ms = %g, want > 0", i, v)
			}
		}
	}
}

// TestStreamAndProgressInterleave checks both callbacks fire once per cell on
// the same goroutine, with a cell's Progress call preceding its Stream call.
func TestStreamAndProgressInterleave(t *testing.T) {
	cfg := quick()
	cfg.Trials = 3
	progressed := map[int]bool{}
	streamed := 0
	_, err := runner.Run(context.Background(), []string{"fig3d"}, cfg, runner.Options{
		Parallel: 3,
		Progress: func(ev runner.Event) { progressed[ev.Index] = true },
		Stream: func(ev runner.Event) {
			if !progressed[ev.Index] {
				t.Errorf("cell %d streamed before its progress call", ev.Index)
			}
			streamed++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != 3 || len(progressed) != 3 {
		t.Fatalf("streamed=%d progressed=%d, want 3/3", streamed, len(progressed))
	}
}

// TestEventCell pins the one runner.Event → runlog.Cell mapping that both
// the CLI's run log and served job logs write: identity fields, wall time,
// the registry's deterministic counters, and the error class of a failure.
func TestEventCell(t *testing.T) {
	reg := trace.NewMetrics()
	reg.Counter("sim.virtual_ms").Add(2500)
	reg.Counter("fault.injected").Add(3)
	reg.Counter("fault.recovered").Add(2)
	ok := runner.Event{Index: 4, ID: "fig3a", Trial: 1, Seed: 1000001, Attempt: 1,
		Table: &experiments.Table{Metrics: reg}, Elapsed: 2500 * time.Microsecond}
	want := runlog.Cell{Index: 4, ID: "fig3a", Trial: 1, Seed: 1000001, Attempt: 1, Status: "ok",
		WallMS: 2.5, VirtualMS: 2500, FaultsInjected: 3, FaultsRecovered: 2}
	if got := ok.Cell(); got != want {
		t.Errorf("ok cell = %+v, want %+v", got, want)
	}
	if names := reg.Names(); len(names) != 3 {
		t.Errorf("mining grew the registry to %v", names)
	}
	err := fmt.Errorf("cell fig3a trial 0: %w", context.DeadlineExceeded)
	failed := runner.Event{ID: "fig3a", Err: err}.Cell()
	if failed.Status != "error" || failed.ErrorClass != runlog.ClassifyError(err) || failed.Error != err.Error() {
		t.Errorf("failed cell = %+v, want an error record", failed)
	}
}
