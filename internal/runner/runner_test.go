package runner_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/runner"
)

// quick is a fast configuration for runner tests.
func quick() experiments.Config {
	return experiments.Config{Seed: 1, Pages: 2, ClipDuration: 10 * time.Second,
		CallDuration: 5 * time.Second, IperfDuration: time.Second}
}

func TestParallelMatchesSequentialMultiTrial(t *testing.T) {
	ids := []string{"fig3d", "abl-hwdecoder", "fig2a", "text-regex"}
	cfg := quick()
	cfg.Trials = 3
	seq, err := runner.Run(context.Background(), ids, cfg, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runner.Run(context.Background(), ids, cfg, runner.Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(ids) || len(par) != len(ids) {
		t.Fatalf("result counts: seq=%d par=%d want %d", len(seq), len(par), len(ids))
	}
	for i, id := range ids {
		if seq[i].ID != id || par[i].ID != id {
			t.Fatalf("result %d out of order: seq=%s par=%s want %s", i, seq[i].ID, par[i].ID, id)
		}
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("%s errored: seq=%v par=%v", id, seq[i].Err, par[i].Err)
		}
		if s, p := seq[i].Table.String(), par[i].Table.String(); s != p {
			t.Errorf("%s: parallel table differs from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", id, s, p)
		}
	}
}

func TestSingleTrialMatchesDirectRun(t *testing.T) {
	ids := []string{"fig3d", "abl-hwdecoder"}
	res, err := runner.Run(context.Background(), ids, quick(), runner.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want, err := experiments.Run(id, quick())
		if err != nil {
			t.Fatal(err)
		}
		if res[i].Err != nil {
			t.Fatalf("%s: %v", id, res[i].Err)
		}
		if got := res[i].Table.String(); got != want.String() {
			t.Errorf("%s: runner output differs from direct experiments.Run:\n%s\nvs\n%s",
				id, got, want.String())
		}
	}
}

func TestProgressEventsAndDerivedSeeds(t *testing.T) {
	cfg := quick()
	cfg.Trials = 2
	ids := []string{"fig3d", "abl-hwdecoder"}
	var mu sync.Mutex
	var events []runner.Event
	_, err := runner.Run(context.Background(), ids, cfg, runner.Options{
		Parallel: 4,
		Progress: func(ev runner.Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := len(ids) * cfg.Trials
	if len(events) != total {
		t.Fatalf("got %d progress events, want %d", len(events), total)
	}
	seeds := map[string]map[int]uint64{}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != total {
			t.Errorf("event %d: Done/Total = %d/%d, want %d/%d", i, ev.Done, ev.Total, i+1, total)
		}
		if ev.Err != nil {
			t.Errorf("cell %s trial %d errored: %v", ev.ID, ev.Trial, ev.Err)
		}
		if seeds[ev.ID] == nil {
			seeds[ev.ID] = map[int]uint64{}
		}
		seeds[ev.ID][ev.Trial] = ev.Seed
	}
	for _, id := range ids {
		for trial := 0; trial < cfg.Trials; trial++ {
			want := experiments.TrialSeed(1, trial)
			if got := seeds[id][trial]; got != want {
				t.Errorf("%s trial %d ran with seed %d, want %d", id, trial, got, want)
			}
		}
	}
}

func TestUnknownExperimentIsPerResultError(t *testing.T) {
	res, err := runner.Run(context.Background(), []string{"fig3d", "fig99"}, quick(),
		runner.Options{Parallel: 2})
	if err != nil {
		t.Fatalf("run-level error: %v", err)
	}
	if res[0].Err != nil || res[0].Table == nil {
		t.Fatalf("good id failed: %v", res[0].Err)
	}
	if res[1].Err == nil || res[1].Table != nil {
		t.Fatalf("bad id did not fail: table=%v", res[1].Table)
	}
	if !strings.Contains(res[1].Err.Error(), "fig99") {
		t.Fatalf("error does not name the experiment: %v", res[1].Err)
	}
}

func TestTimeoutAbandonsQueuedCells(t *testing.T) {
	cfg := quick()
	cfg.Trials = 4
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	res, err := runner.Run(ctx, []string{"fig3d", "abl-hwdecoder"}, cfg, runner.Options{Parallel: 1})
	if err == nil {
		t.Fatal("expected a deadline error")
	}
	if !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("unexpected error: %v", err)
	}
	for _, r := range res {
		if r.Err == nil {
			t.Fatalf("%s completed despite an expired deadline", r.ID)
		}
	}
}

func TestMergedTableHasCIColumns(t *testing.T) {
	cfg := quick()
	cfg.Trials = 3
	res, err := runner.Run(context.Background(), []string{"fig3d"}, cfg, runner.Options{Parallel: 3})
	if err != nil || res[0].Err != nil {
		t.Fatalf("run failed: %v / %v", err, res[0].Err)
	}
	header := strings.Join(res[0].Table.Columns, " ")
	for _, want := range []string{":mean", ":p50", ":ci95"} {
		if !strings.Contains(header, want) {
			t.Errorf("merged header %q missing %q", header, want)
		}
	}
	if got := len(res[0].Table.Rows[0]); got != len(res[0].Table.Columns) {
		t.Errorf("row width %d != header width %d", got, len(res[0].Table.Columns))
	}
}

func TestEmptyRun(t *testing.T) {
	res, err := runner.Run(context.Background(), nil, quick(), runner.Options{})
	if err != nil || res != nil {
		t.Fatalf("empty run: res=%v err=%v", res, err)
	}
}

// TestMetricsMergeParallelDeterminism asserts the merged registry of a
// multi-trial run is independent of the worker count: trial registries fold
// strictly in trial order, never completion order.
func TestMetricsMergeParallelDeterminism(t *testing.T) {
	cfg := quick()
	cfg.Trials = 3
	cfg.Metrics = true
	ids := []string{"fig3d", "abl-hwdecoder"}
	seq, err := runner.Run(context.Background(), ids, cfg, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runner.Run(context.Background(), ids, cfg, runner.Options{Parallel: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("%s errored: seq=%v par=%v", id, seq[i].Err, par[i].Err)
		}
		if seq[i].Table.Metrics == nil || par[i].Table.Metrics == nil {
			t.Fatalf("%s: missing merged metrics registry", id)
		}
		s := seq[i].Table.Metrics.Table()
		p := par[i].Table.Metrics.Table()
		if s != p {
			t.Errorf("%s: parallel registry differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", id, s, p)
		}
	}
}
