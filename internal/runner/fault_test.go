package runner_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/runner"
)

// TestWorkerPanicBecomesPerCellError injects a panic into one cell of a
// multi-trial run and checks the pool survives: the other cells complete,
// the panicking trial shows up as an ERROR note on the merged table, and the
// result carries the error instead of the process dying.
func TestWorkerPanicBecomesPerCellError(t *testing.T) {
	restore := runner.SetCellFn(func(id string, cfg experiments.Config, trial, attempt int) (*experiments.Table, error) {
		if id == "fig3d" && trial == 1 {
			panic("injected crash")
		}
		return experiments.RunTrialAttempt(id, cfg, trial, attempt)
	})
	defer restore()

	cfg := quick()
	cfg.Trials = 3
	res, err := runner.Run(context.Background(), []string{"fig3d", "abl-hwdecoder"}, cfg,
		runner.Options{Parallel: 4})
	if err != nil {
		t.Fatalf("run-level error for a recovered panic: %v", err)
	}
	crashed, clean := res[0], res[1]
	if crashed.Err == nil || !strings.Contains(crashed.Err.Error(), "panic: injected crash") {
		t.Fatalf("fig3d error = %v, want recovered panic", crashed.Err)
	}
	if !strings.Contains(crashed.Err.Error(), "fig3d trial 1") {
		t.Fatalf("error does not name the cell: %v", crashed.Err)
	}
	if crashed.Table == nil {
		t.Fatal("fig3d lost its surviving trials")
	}
	found := false
	for _, n := range crashed.Table.Notes {
		if strings.HasPrefix(n, "ERROR:") && strings.Contains(n, "panic: injected crash") {
			found = true
		}
	}
	if !found {
		t.Fatalf("merged table notes carry no ERROR row: %v", crashed.Table.Notes)
	}
	if clean.Err != nil || clean.Table == nil {
		t.Fatalf("healthy experiment disturbed: err=%v", clean.Err)
	}
}

// TestRetriesRecoverFlakyCell makes a cell fail on its first two attempts
// and checks Retries reruns it to success, that the Progress event reports
// which attempt won, and that the retried table matches a direct run under
// the derived attempt seed.
func TestRetriesRecoverFlakyCell(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	restore := runner.SetCellFn(func(id string, cfg experiments.Config, trial, attempt int) (*experiments.Table, error) {
		if id == "fig3d" {
			mu.Lock()
			calls++
			mu.Unlock()
			if attempt < 2 {
				return nil, fmt.Errorf("flaky attempt %d", attempt)
			}
		}
		return experiments.RunTrialAttempt(id, cfg, trial, attempt)
	})
	defer restore()

	var events []runner.Event
	res, err := runner.Run(context.Background(), []string{"fig3d"}, quick(), runner.Options{
		Parallel: 1,
		Retries:  2,
		Progress: func(ev runner.Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatalf("cell failed despite retries: %v", res[0].Err)
	}
	if calls != 3 {
		t.Fatalf("cell ran %d times, want 3 (two failures + success)", calls)
	}
	if len(events) != 1 || events[0].Attempt != 2 {
		t.Fatalf("progress events %+v, want one event from attempt 2", events)
	}
	want, err := experiments.RunTrialAttempt("fig3d", quick(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Table.String(); got != want.String() {
		t.Errorf("retried table differs from direct attempt-2 run:\n%s\nvs\n%s", got, want.String())
	}
}

// TestRetriesExhaustedNamesEveryAttempt checks a cell that never succeeds
// fails with an error counting its attempts.
func TestRetriesExhaustedNamesEveryAttempt(t *testing.T) {
	restore := runner.SetCellFn(func(id string, cfg experiments.Config, trial, attempt int) (*experiments.Table, error) {
		return nil, errors.New("always down")
	})
	defer restore()

	res, err := runner.Run(context.Background(), []string{"fig3d"}, quick(),
		runner.Options{Parallel: 1, Retries: 2})
	if err != nil {
		t.Fatalf("run-level error for per-cell failure: %v", err)
	}
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "failed after 3 attempt(s)") {
		t.Fatalf("error = %v, want attempt count", res[0].Err)
	}
	if res[0].Table != nil {
		t.Fatal("every trial failed but a table survived")
	}
}

// TestCancelMidRunMergesCompletedCellsDeterministically cancels the run
// after a chosen cell completes and checks: later cells fail with errors
// naming the unstarted cell, completed cells still merge, and the partial
// table is identical across repeats.
func TestCancelMidRunMergesCompletedCellsDeterministically(t *testing.T) {
	partial := func() (*experiments.Table, error, []error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		restore := runner.SetCellFn(func(id string, cfg experiments.Config, trial, attempt int) (*experiments.Table, error) {
			tab, err := experiments.RunTrialAttempt(id, cfg, trial, attempt)
			if trial == 1 {
				cancel() // trials 2+ must not start
			}
			return tab, err
		})
		defer restore()
		cfg := quick()
		cfg.Trials = 4
		res, err := runner.Run(ctx, []string{"fig3d"}, cfg, runner.Options{Parallel: 1})
		if err == nil {
			t.Fatal("canceled run reported no error")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run error = %v, want context.Canceled", err)
		}
		return res[0].Table, res[0].Err, []error{res[0].Err}
	}

	tab1, cellErr, _ := partial()
	if cellErr == nil || !errors.Is(cellErr, context.Canceled) {
		t.Fatalf("cell error = %v, want wrapped context.Canceled", cellErr)
	}
	if !strings.Contains(cellErr.Error(), "fig3d trial 2") ||
		!strings.Contains(cellErr.Error(), "not started") {
		t.Fatalf("error does not name the unstarted cell: %v", cellErr)
	}
	if tab1 == nil {
		t.Fatal("completed trials were dropped from the merge")
	}
	tab2, _, _ := partial()
	if tab1.String() != tab2.String() {
		t.Errorf("partial merge not deterministic across repeats:\n%s\nvs\n%s",
			tab1.String(), tab2.String())
	}
	unstarted := 0
	for _, n := range tab1.Notes {
		if strings.Contains(n, "not started") {
			unstarted++
		}
	}
	if unstarted != 2 {
		t.Fatalf("want 2 'not started' ERROR notes (trials 2,3), got %d in %v", unstarted, tab1.Notes)
	}
}

// TestTimeoutErrorNamesUnstartedCell drives a context deadline (rather than
// an explicit cancel) and checks the abandoned cells' errors identify the
// experiment and trial that never ran.
func TestTimeoutErrorNamesUnstartedCell(t *testing.T) {
	block := make(chan struct{})
	restore := runner.SetCellFn(func(id string, cfg experiments.Config, trial, attempt int) (*experiments.Table, error) {
		if trial == 0 {
			tab, err := experiments.RunTrialAttempt(id, cfg, trial, attempt)
			<-block // hold the worker past the deadline
			return tab, err
		}
		return experiments.RunTrialAttempt(id, cfg, trial, attempt)
	})
	defer restore()

	cfg := quick()
	cfg.Trials = 2
	done := make(chan []runner.Result, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		res, _ := runner.Run(ctx, []string{"fig3d"}, cfg, runner.Options{Parallel: 1})
		done <- res
	}()
	time.Sleep(300 * time.Millisecond)
	close(block)
	res := <-done

	if res[0].Err == nil {
		t.Fatal("timed-out run reported no cell error")
	}
	msg := res[0].Err.Error()
	if !strings.Contains(msg, "fig3d trial 1") || !strings.Contains(msg, "not started") {
		t.Fatalf("timeout error does not name the unstarted cell: %v", msg)
	}
	if !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Fatalf("timeout error = %v, want wrapped DeadlineExceeded", res[0].Err)
	}
	if res[0].Table == nil {
		t.Fatal("completed trial 0 was dropped from the merge")
	}
}
