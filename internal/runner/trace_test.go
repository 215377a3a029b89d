package runner_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/fault"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/trace"
)

func traceTiny() experiments.Config {
	return experiments.Config{Seed: 1, Pages: 1, ClipDuration: 5 * time.Second,
		CallDuration: 2 * time.Second, IperfDuration: time.Second}
}

func traceJSON(t *testing.T, tr *trace.Tracer) []byte {
	t.Helper()
	if tr == nil {
		t.Fatal("nil tracer")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// progressTracers runs ids under Options.Trace and returns every Progress
// event's tracer by cell index.
func progressTracers(t *testing.T, ids []string, cfg experiments.Config, parallel int) []*trace.Tracer {
	t.Helper()
	var out []*trace.Tracer
	res, err := runner.Run(context.Background(), ids, cfg, runner.Options{Parallel: parallel,
		Trace: true, Progress: func(ev runner.Event) {
			for len(out) <= ev.Index {
				out = append(out, nil)
			}
			out[ev.Index] = ev.Trace
		}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	return out
}

// TestProgressTracersMatchSequential runs a multi-trial experiment on one
// worker and on eight, and asserts every cell's Progress tracer serializes
// to the same bytes either way and the same bytes as experiments.RunTrial
// given a fresh tracer. Each cell owns its tracer, so scheduling order
// cannot leak into any trace.
func TestProgressTracersMatchSequential(t *testing.T) {
	const trials = 2
	cfg := traceTiny()
	cfg.Trials = trials
	seq := progressTracers(t, []string{"fig3a"}, cfg, 1)
	par := progressTracers(t, []string{"fig3a"}, cfg, 8)
	for trial := 0; trial < trials; trial++ {
		direct := cfg
		direct.Trace = trace.New()
		if _, err := experiments.RunTrial("fig3a", direct, trial); err != nil {
			t.Fatal(err)
		}
		want := traceJSON(t, direct.Trace)
		if len(want) == 0 || direct.Trace.Len() == 0 {
			t.Fatalf("trial %d: empty trace", trial)
		}
		if a := traceJSON(t, seq[trial]); !bytes.Equal(a, want) {
			t.Errorf("trial %d: Parallel 1 trace differs from RunTrial (%d vs %d bytes)", trial, len(a), len(want))
		}
		if b := traceJSON(t, par[trial]); !bytes.Equal(b, want) {
			t.Errorf("trial %d: Parallel 8 trace differs from RunTrial (%d vs %d bytes)", trial, len(b), len(want))
		}
	}
	// Distinct trials run distinct seeds, so their traces must differ.
	if bytes.Equal(traceJSON(t, seq[0]), traceJSON(t, seq[1])) {
		t.Error("trials 0 and 1 produced identical traces; per-trial seeds not applied")
	}
}

// TestAppendedCellTracesEqualSharedTracer pins the combined-trace contract:
// per-cell tracers from a parallel run, appended in cell order, serialize to
// the same bytes as one tracer shared by a sequential run.
func TestAppendedCellTracesEqualSharedTracer(t *testing.T) {
	for _, id := range []string{"fig3d", "fig4a", "fig6"} {
		for _, faulted := range []bool{false, true} {
			cfg := traceTiny()
			cfg.Trials = 2
			if faulted {
				cfg.Faults = fault.Default()
			}
			shared := cfg
			shared.Trace = trace.New()
			if _, err := experiments.Run(id, shared); err != nil {
				t.Fatalf("%s faulted=%v: %v", id, faulted, err)
			}

			combined := trace.New()
			inorder := runner.NewInorder(cfg.Trials, combined.Append)
			if _, err := runner.Run(context.Background(), []string{id}, cfg, runner.Options{
				Parallel: 4, Trace: true,
				Progress: func(ev runner.Event) { inorder.Put(ev.Index, ev.Trace) },
			}); err != nil {
				t.Fatal(err)
			}
			want, got := traceJSON(t, shared.Trace), traceJSON(t, combined)
			if !bytes.Equal(got, want) {
				t.Errorf("%s faulted=%v: appended trace differs from shared (%d vs %d bytes)",
					id, faulted, len(got), len(want))
			}
		}
	}
}

// TestStreamEventsCarryNoTracer checks the tracer rides Progress only: the
// Stream reorder window must never hold trace memory, and a cell whose id
// does not resolve gets no tracer.
func TestStreamEventsCarryNoTracer(t *testing.T) {
	cfg := traceTiny()
	cfg.Trials = 2
	progress := map[string]*trace.Tracer{}
	streamed := 0
	_, err := runner.Run(context.Background(), []string{"fig3d", "fig99"}, cfg, runner.Options{
		Parallel: 2, Trace: true,
		Progress: func(ev runner.Event) { progress[fmt.Sprintf("%s/%d", ev.ID, ev.Trial)] = ev.Trace },
		Stream: func(ev runner.Event) {
			streamed++
			if ev.Trace != nil {
				t.Errorf("stream event %d (%s trial %d) carries a tracer", ev.Index, ev.ID, ev.Trial)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != 4 {
		t.Fatalf("streamed %d events, want 4", streamed)
	}
	for _, key := range []string{"fig3d/0", "fig3d/1"} {
		if tr := progress[key]; tr == nil || tr.Len() == 0 {
			t.Errorf("%s: Progress event has no populated tracer", key)
		}
	}
	for _, key := range []string{"fig99/0", "fig99/1"} {
		if tr, ok := progress[key]; !ok || tr != nil {
			t.Errorf("%s: unknown id got tracer %v (seen=%v), want nil", key, tr, ok)
		}
	}
}

// TestRetriedCellTracesReportedAttemptOnly checks a retried cell's tracer
// holds only the attempt it reported: the failed attempt's events are gone.
func TestRetriedCellTracesReportedAttemptOnly(t *testing.T) {
	restore := runner.SetCellFn(func(id string, cfg experiments.Config, trial, attempt int) (*experiments.Table, error) {
		pid := cfg.Trace.Process("attempt")
		cfg.Trace.Instant("test", fmt.Sprintf("attempt%d", attempt), pid, 0, 0)
		if attempt == 0 {
			return nil, errors.New("flaky first attempt")
		}
		return &experiments.Table{ID: id, Columns: []string{"x"}}, nil
	})
	defer restore()

	var got *runner.Event
	res, err := runner.Run(context.Background(), []string{"fig3d"}, traceTiny(), runner.Options{
		Parallel: 1, Retries: 1, Trace: true,
		Progress: func(ev runner.Event) { got = &ev },
	})
	if err != nil || res[0].Err != nil {
		t.Fatalf("run: %v / %v", err, res[0].Err)
	}
	if got == nil || got.Attempt != 1 {
		t.Fatalf("progress event = %+v, want attempt 1", got)
	}
	var names []string
	for _, e := range got.Trace.Events() {
		if e.Kind == trace.KindInstant {
			names = append(names, e.Name)
		}
	}
	if len(names) != 1 || names[0] != "attempt1" {
		t.Fatalf("cell trace instants = %v, want only [attempt1]", names)
	}
}
