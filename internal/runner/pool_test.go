package runner_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mobileqoe/internal/runner"
)

type check func(t *testing.T, outs []runner.Outcome[int])

// TestPool covers the one worker loop behind runner.Run and fleet.Run. Each
// case builds a pool (closing over its own records) and the check that reads
// them back after Run returns.
func TestPool(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name   string
		cancel bool // cancel the run's context before Run
		setup  func(cancel context.CancelFunc) (runner.Pool[int], check)
	}{
		{name: "panic becomes an error", setup: func(context.CancelFunc) (runner.Pool[int], check) {
			return runner.Pool[int]{N: 1, Workers: 1,
					Attempt: func(context.Context, int, int) (int, error) { panic("injected") },
				}, func(t *testing.T, outs []runner.Outcome[int]) {
					o := outs[0]
					if o.Status != runner.CellFailed || o.Err == nil || !strings.Contains(o.Err.Error(), "attempt 0: panic: injected") {
						t.Errorf("outcome %+v, want CellFailed with the recovered panic", o)
					}
				}
		}},
		{name: "retry count", setup: func(context.CancelFunc) (runner.Pool[int], check) {
			var tries []int
			return runner.Pool[int]{N: 1, Workers: 1, Retries: 2,
					Attempt: func(_ context.Context, _, attempt int) (int, error) {
						tries = append(tries, attempt)
						if attempt < 2 {
							return 0, boom
						}
						return 7, nil
					},
				}, func(t *testing.T, outs []runner.Outcome[int]) {
					o := outs[0]
					if o.Status != runner.CellOK || o.Attempt != 2 || o.Value != 7 || fmt.Sprint(tries) != "[0 1 2]" {
						t.Errorf("outcome %+v after attempts %v, want CellOK from attempt 2 of [0 1 2]", o, tries)
					}
				}
		}},
		{name: "per-attempt timeout retries", setup: func(context.CancelFunc) (runner.Pool[int], check) {
			return runner.Pool[int]{N: 1, Workers: 1, Retries: 1, Timeout: 20 * time.Millisecond,
					Attempt: func(ctx context.Context, _, attempt int) (int, error) {
						if attempt == 0 {
							<-ctx.Done() // hang until the attempt's deadline
							return 0, ctx.Err()
						}
						return 1, nil
					},
				}, func(t *testing.T, outs []runner.Outcome[int]) {
					if o := outs[0]; o.Status != runner.CellOK || o.Attempt != 1 {
						t.Errorf("outcome %+v, want CellOK from attempt 1", o)
					}
				}
		}},
		{name: "canceled before start", cancel: true, setup: func(context.CancelFunc) (runner.Pool[int], check) {
			ran := false
			return runner.Pool[int]{N: 2, Workers: 1,
					Attempt: func(context.Context, int, int) (int, error) { ran = true; return 0, nil },
				}, func(t *testing.T, outs []runner.Outcome[int]) {
					for _, o := range outs {
						if o.Status != runner.CellNotStarted || !errors.Is(o.Err, context.Canceled) ||
							o.Err.Error() != "not started: context canceled" {
							t.Errorf("outcome %+v, want CellNotStarted wrapping context.Canceled", o)
						}
					}
					if ran {
						t.Error("an attempt ran under a canceled context")
					}
				}
		}},
		{name: "cancel during backoff aborts", setup: func(cancel context.CancelFunc) (runner.Pool[int], check) {
			tries := 0
			return runner.Pool[int]{N: 1, Workers: 1, Retries: 3,
					Attempt: func(context.Context, int, int) (int, error) {
						tries++
						time.AfterFunc(10*time.Millisecond, cancel) // lands inside the 100ms backoff
						return 0, boom
					},
				}, func(t *testing.T, outs []runner.Outcome[int]) {
					o := outs[0]
					if o.Status != runner.CellAborted || o.Attempt != 0 || !errors.Is(o.Err, boom) || tries != 1 {
						t.Errorf("outcome %+v after %d attempts, want CellAborted reporting attempt 0's boom", o, tries)
					}
				}
		}},
		{name: "settle runs before the next draw", setup: func(context.CancelFunc) (runner.Pool[int], check) {
			var settled, seen []int // seen: settles each cell found when drawn
			return runner.Pool[int]{N: 5, Workers: 1,
					Attempt: func(_ context.Context, i, _ int) (int, error) {
						seen = append(seen, len(settled))
						return i, nil
					},
					Settle: func(o *runner.Outcome[int]) { settled = append(settled, o.Index) },
				}, func(t *testing.T, outs []runner.Outcome[int]) {
					if fmt.Sprint(seen) != "[0 1 2 3 4]" || len(settled) != 5 {
						t.Errorf("cells drawn after %v settles (settled %v), want [0 1 2 3 4]", seen, settled)
					}
				}
		}},
		{name: "event order, 1 worker", setup: eventOrder(1)},
		{name: "event order, 4 workers", setup: eventOrder(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			pool, check := tc.setup(cancel)
			if tc.cancel {
				cancel()
			}
			check(t, pool.Run(ctx))
		})
	}
}

// eventOrder builds the event-order case: Progress fires once per cell
// before that cell's Stream call, and Stream runs in index order with
// Done = Index+1, whatever order cells finish in.
func eventOrder(workers int) func(context.CancelFunc) (runner.Pool[int], check) {
	return func(context.CancelFunc) (runner.Pool[int], check) {
		const n = 24
		var mu sync.Mutex // Settle runs on the workers
		settled := 0
		var progressed [n]bool
		var stream []int
		var errs []string // Progress and Stream run on the test goroutine
		return runner.Pool[int]{N: n, Workers: workers,
				Attempt: func(_ context.Context, i, _ int) (int, error) {
					time.Sleep(time.Duration((n-i)%5) * time.Millisecond) // scramble completion order
					return i * i, nil
				},
				Settle: func(*runner.Outcome[int]) { mu.Lock(); settled++; mu.Unlock() },
				Progress: func(o runner.Outcome[int]) {
					if progressed[o.Index] {
						errs = append(errs, fmt.Sprintf("cell %d reported twice", o.Index))
					}
					progressed[o.Index] = true
				},
				Stream: func(o runner.Outcome[int]) {
					if !progressed[o.Index] {
						errs = append(errs, fmt.Sprintf("cell %d streamed before its Progress call", o.Index))
					}
					if o.Index != len(stream) || o.Done != o.Index+1 || o.Total != n || o.Value != o.Index*o.Index {
						errs = append(errs, fmt.Sprintf("stream event %+v at position %d", o, len(stream)))
					}
					stream = append(stream, o.Index)
				},
			}, func(t *testing.T, _ []runner.Outcome[int]) {
				for _, e := range errs {
					t.Error(e)
				}
				if len(stream) != n || settled != n {
					t.Errorf("streamed %d and settled %d of %d cells", len(stream), settled, n)
				}
			}
	}
}
