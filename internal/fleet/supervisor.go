package fleet

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"mobileqoe/internal/runner"
)

// Options tunes the shard supervisor. The zero value is usable: GOMAXPROCS
// workers, no shard timeout, no retries. Nothing here can affect results —
// only scheduling, durability, and reporting.
type Options struct {
	// Parallel is the worker count (<=0: GOMAXPROCS, capped at the shard
	// count).
	Parallel int
	// ShardTimeout bounds one attempt's wall clock (0: unbounded). A timed-
	// out attempt counts as a failure and retries like any other.
	ShardTimeout time.Duration
	// Retries is how many times a failed shard is re-attempted beyond the
	// first try (total attempts = Retries+1), after runner.Pool's capped
	// exponential backoff (100ms doubling to 5s).
	Retries int
	// StopAfter, when >0, cancels the run after that many FRESH shard
	// completions — exactly as if the process had been interrupted then.
	// It exists so tests and CI can exercise the kill-mid-run path
	// deterministically without racing a real signal.
	StopAfter int
	// OnComplete runs on the worker goroutine after a shard succeeds and
	// BEFORE its completion is announced — the checkpoint-durability hook.
	// An error is treated as a failure of the attempt (the shard retries).
	OnComplete func(*ShardResult) error
	// Progress receives one event per shard in COMPLETION order, for live
	// UIs (ETA bars); Stream in SHARD-INDEX order, for run logs, whose cell
	// order must be deterministic (see runner.Pool).
	Progress, Stream func(Event)
}

// breakerThreshold trips the circuit after this many CONSECUTIVE
// permanently-failed shards: remaining shards are skipped (recorded, not
// run), on the theory that an environment failing every shard will fail the
// rest too. A single success resets the count, closing the breaker.
const breakerThreshold = 8

// Event reports one shard's outcome. Exactly one event is emitted per
// shard — restored, completed, failed, skipped, or aborted — so a Stream
// consumer always sees the full index sequence 0..Shards-1.
type Event struct {
	Shard      int
	Start, End int
	// Attempt is the attempt the outcome came from (0 = first try, and for
	// restored, skipped and unstarted shards), as in runner.Event.
	Attempt int
	// Restored: loaded from a checkpoint.
	Restored bool
	// Err is set for failed, skipped, and aborted shards.
	Err error
	// Done/Total: progress numbering. In Progress events Done counts
	// completion order; in Stream events it is the contiguous flushed
	// prefix.
	Done, Total int
	Tuples      int
	Elapsed     time.Duration
	// Result is set for restored and completed shards.
	Result *ShardResult
}

// ShardFailure records one permanently-failed shard in the run summary.
type ShardFailure struct {
	Shard    int
	Attempts int
	Err      error
}

// RunResult is the supervisor's outcome. Results holds restored+completed
// shards sorted by index; Merged is their exact fold. Completed counts
// fresh completions only.
type RunResult struct {
	Merged    *Merged
	Results   []*ShardResult
	Completed int
	Restored  int
	Failed    int
	Skipped   int
	Failures  []ShardFailure
	// Interrupted: the run was canceled (signal or StopAfter) before every
	// shard finished. The checkpoint holds what completed; resume with the
	// same spec picks up the rest.
	Interrupted bool
}

// Run supervises the fleet on a runner.Pool: restored shards are announced
// first (in index order), then workers draw the remaining shards. Each shard
// gets per-attempt timeouts, panic containment, bounded retries with capped
// exponential backoff, and a consecutive-failure circuit breaker.
// Cancellation of ctx (signal, StopAfter) stops cleanly: in-flight attempts
// abort between tuples, un-run shards emit abort events, and the function
// returns with Interrupted set — it never abandons events mid-sequence.
func Run(parent context.Context, r *Runner, restored map[int]*ShardResult, opts Options) *RunResult {
	spec := r.Spec()
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	var completed, consecFailed atomic.Int64 // shared by the workers' hooks
	began := make([]time.Time, spec.Shards)  // each shard's first attempt, for WallMS
	pool := runner.Pool[*ShardResult]{N: spec.Shards, Workers: opts.Parallel,
		Retries: opts.Retries, Timeout: opts.ShardTimeout,
		Attempt: func(ctx context.Context, k, attempt int) (*ShardResult, error) {
			if attempt == 0 {
				began[k] = time.Now()
			}
			sh, err := runShardAttempt(ctx, r, k, attempt)
			if err != nil {
				return nil, err
			}
			sh.Attempts = attempt + 1
			sh.WallMS = float64(time.Since(began[k])) / float64(time.Millisecond)
			if opts.OnComplete != nil {
				if err := opts.OnComplete(sh); err != nil {
					return nil, fmt.Errorf("fleet: shard %d attempt %d checkpoint: %w", k, attempt, err)
				}
			}
			return sh, nil
		},
		Restored: func(k int) (*ShardResult, bool) { return restored[k], restored[k] != nil },
		Skip: func(k int) error {
			if n := consecFailed.Load(); n >= breakerThreshold {
				return fmt.Errorf("fleet: shard %d skipped: circuit breaker open after %d consecutive shard failures", k, n)
			}
			return nil
		},
		// Settle runs before the worker draws its next shard, so StopAfter
		// cancels before another shard can start and the breaker sees every
		// failure. Aborted and unstarted shards are not failures: resume
		// runs them.
		Settle: func(o *runner.Outcome[*ShardResult]) {
			switch o.Status {
			case runner.CellOK:
				consecFailed.Store(0)
				if completed.Add(1) == int64(opts.StopAfter) {
					cancel()
				}
			case runner.CellFailed:
				consecFailed.Add(1)
			}
		},
	}
	event := func(o runner.Outcome[*ShardResult]) Event {
		start, end := ShardRange(spec.Population, spec.Shards, o.Index)
		ev := Event{Shard: o.Index, Start: start, End: end, Attempt: o.Attempt,
			Restored: o.Status == runner.CellRestored, Err: o.Err,
			Done: o.Done, Total: o.Total, Elapsed: o.Elapsed, Result: o.Value}
		if o.Value != nil {
			ev.Tuples = o.Value.Tuples
		}
		return ev
	}
	if opts.Progress != nil {
		pool.Progress = func(o runner.Outcome[*ShardResult]) { opts.Progress(event(o)) }
	}
	if opts.Stream != nil {
		pool.Stream = func(o runner.Outcome[*ShardResult]) { opts.Stream(event(o)) }
	}

	res := &RunResult{Restored: len(restored)}
	for _, o := range pool.Run(ctx) {
		switch o.Status {
		case runner.CellOK, runner.CellRestored:
			res.Results = append(res.Results, o.Value)
		case runner.CellFailed:
			res.Failures = append(res.Failures, ShardFailure{Shard: o.Index, Attempts: o.Attempt + 1, Err: o.Err})
		case runner.CellSkipped:
			res.Skipped++
		}
	}
	res.Completed, res.Failed = int(completed.Load()), len(res.Failures)
	res.Interrupted = ctx.Err() != nil && res.Completed+res.Restored < spec.Shards
	res.Merged = MergeShards(res.Results)
	return res
}
