// Package runner is the scale-out harness for the experiment registry: it
// fans the independent (experiment, trial) cells of a multi-trial run across
// a worker pool and merges the per-trial tables back deterministically.
//
// Each cell constructs its own private simulation world (every registry
// runner builds fresh core.System/sim.Sim instances), so cells share no
// mutable state and need no locks; the only coordination is the Pool that
// draws and announces them. Results are merged strictly by cell index —
// never by completion order — which makes a parallel run byte-identical to
// a sequential one with the same Config.
package runner

import (
	"context"
	"fmt"
	"time"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/trace"
)

// Options tune a Run. The zero value runs on GOMAXPROCS workers with no
// retries, no progress reporting, and no tracing. A deadline or cancel on
// Run's context stops the run: cells already executing finish (the
// simulation kernel is not preemptible); queued cells fail with an error
// naming the cell and wrapping the context error.
type Options struct {
	// Parallel is the worker-goroutine count; <= 0 means GOMAXPROCS.
	Parallel int
	// Retries is how many extra attempts a failed cell gets (a panic inside
	// a registry runner is recovered into an error and counts as a failure),
	// after the Pool's backoff. Retry attempt a reruns the cell under
	// experiments.AttemptSeed(seed, a), so a crash tied to one pathological
	// draw does not repeat verbatim. Context cancellation is never retried.
	// 0 means one attempt only.
	Retries int
	// Progress and Stream, when non-nil, are called once per cell with the
	// Pool's guarantees: Progress in completion order, which is
	// nondeterministic and for reporting only; Stream in cell order
	// (experiment-major, trial-minor, the order results merge in) whatever
	// the worker count; a cell's Progress call before its Stream call.
	// Under Trace a Progress event carries the cell's tracer (a consumer
	// that needs tracers in cell order re-sequences them with NewInorder);
	// Stream events never do, so the reorder window holds no trace memory.
	//
	// Determinism contract (pinned by TestStreamDeterministic): for a fixed
	// binary, Config, and ids, the Stream event sequence is identical
	// across runs and Parallel values in every field except Elapsed, the
	// only host-time field — the Table's metrics registry included.
	// Cancellation breaks the guarantee for Err (which cells got cut off
	// depends on timing).
	Progress, Stream func(Event)
	// Trace gives every cell attempt a fresh tracer (experiments.Config.Trace)
	// and hands the reported attempt's tracer to Progress as Event.Trace.
	// Because each cell owns its tracer, a cell's trace is byte-identical at
	// any worker count. Cells whose id does not resolve get no tracer.
	Trace bool
	// Resolve, when non-nil, maps an experiment id to its runner before the
	// built-in registry is consulted; ids it declines (ok == false) fall
	// back to the registry. It is the only way a runner outside the
	// registry runs: engine.Plan.Resolve supplies a composed scenario's
	// runner here, per plan, so concurrent requests never share or mutate
	// a process-global table. Resolve is called from worker goroutines and
	// must be safe for concurrent use.
	Resolve func(id string) (experiments.Runner, bool)
}

// Event describes one completed (experiment, trial) cell.
//
// Field classes (see Options.Stream for the full contract): everything here
// is deterministic except Elapsed (host wall time) — and Done, which counts
// completion order in Progress events but equals Index+1 in Stream events.
type Event struct {
	Done, Total int // Progress: completion counter; Stream: Index+1, cell count
	// Index is the cell's position in deterministic cell order
	// (experiment-major, trial-minor) — the index results merge by.
	Index int
	ID    string
	Trial int
	Seed  uint64 // the derived per-trial seed the cell ran with
	// Attempt is the attempt the reported outcome came from (0 = first try).
	// Deterministic: retries re-run with derived attempt seeds, so which
	// attempt succeeds is a pure function of the configuration.
	Attempt int
	Err     error
	// Table is the cell's result table (nil when Err != nil). Shared with
	// the merge path — stream consumers must treat it as read-only.
	Table *experiments.Table
	// Trace is the reported attempt's tracer under Options.Trace, on
	// Progress events only (nil on Stream events, and for cells that never
	// ran an attempt or whose id does not resolve).
	Trace   *trace.Tracer
	Elapsed time.Duration // host wall time: the only nondeterministic field
}

// Cell maps the event to its run-log record: status and error class from
// Err, plus the deterministic simulation counters (virtual time, fault
// injections and recoveries) mined from the cell's registry when it has
// one. The lookups never create: mining must not add zero rows to the
// cell's shared, printable registry.
func (ev Event) Cell() runlog.Cell {
	c := runlog.Cell{
		Index: ev.Index, ID: ev.ID, Trial: ev.Trial, Seed: ev.Seed,
		Attempt: ev.Attempt,
		WallMS:  float64(ev.Elapsed) / float64(time.Millisecond),
	}
	c.SetOutcome(ev.Err)
	if ev.Table != nil && ev.Table.Metrics != nil {
		reg := ev.Table.Metrics
		c.VirtualMS = reg.LookupCounter("sim.virtual_ms").Value()
		c.FaultsInjected = int64(reg.LookupCounter("fault.injected").Value())
		c.FaultsRecovered = int64(reg.LookupCounter("fault.recovered").Value())
	}
	return c
}

// Result is one experiment's merged outcome. Run returns results in the
// order the experiments were requested.
type Result struct {
	ID string
	// Table merges the trials that completed; failed trials appear as
	// explicit "ERROR: trial N ..." notes on it. It is nil only when every
	// trial failed.
	Table *experiments.Table
	Err   error // first per-trial error, in trial order
}

// cellFn executes one attempt of one cell. It is a variable so crash tests
// can substitute a panicking or canceling implementation (see export_test.go).
var cellFn = experiments.RunTrialAttempt

// Run executes cfg.Trials trials of every listed experiment on a worker
// pool and returns one deterministically merged Result per id. The returned
// error is non-nil only when ctx was canceled or its deadline passed;
// per-experiment failures (e.g. an unknown id) are reported in the
// corresponding Result.Err so one bad id cannot discard a long run.
func Run(ctx context.Context, ids []string, cfg experiments.Config, opts Options) ([]Result, error) {
	norm := cfg.WithDefaults()
	trials := norm.Trials
	if len(ids)*trials == 0 {
		return nil, nil
	}
	// Cell i is trial i%trials of ids[i/trials]: experiment-major order.
	// tracers[i] is cell i's latest attempt's tracer until Progress hands it
	// on, so the Stream window never holds trace memory.
	tracers := make([]*trace.Tracer, len(ids)*trials)
	event := func(o Outcome[*experiments.Table]) Event {
		id, t := ids[o.Index/trials], o.Index%trials
		return Event{Done: o.Done, Total: o.Total, Index: o.Index, ID: id, Trial: t,
			Seed: experiments.CellSeed(norm, t), Attempt: o.Attempt, Err: o.Err, Table: o.Value, Elapsed: o.Elapsed}
	}
	pool := Pool[*experiments.Table]{N: len(tracers), Workers: opts.Parallel, Retries: opts.Retries,
		// Each attempt runs under its derived attempt seed and, when traced,
		// on a fresh tracer. Pass the caller's un-normalized cfg:
		// RunTrialAttempt normalizes it once.
		Attempt: func(_ context.Context, i, attempt int) (*experiments.Table, error) {
			id, t := ids[i/trials], i%trials
			var fn experiments.Runner
			if opts.Resolve != nil {
				fn, _ = opts.Resolve(id)
			}
			c := cfg
			if opts.Trace && (fn != nil || experiments.Describe(id) != "") {
				tracers[i] = trace.New()
				c.Trace = tracers[i]
			}
			if fn != nil {
				return experiments.RunTrialAttemptFn(id, fn, c, t, attempt)
			}
			return cellFn(id, c, t, attempt)
		},
		// Every cell error names the cell, so a timed-out run reports which
		// trials never started instead of a bare context.DeadlineExceeded.
		Settle: func(o *Outcome[*experiments.Table]) {
			id, t := ids[o.Index/trials], o.Index%trials
			switch {
			case o.Status == CellNotStarted:
				o.Err = fmt.Errorf("%s trial %d: %w", id, t, o.Err)
			case o.Err != nil:
				o.Err = fmt.Errorf("%s trial %d: failed after %d attempt(s): %w", id, t, o.Attempt+1, o.Err)
			}
		},
	}
	if opts.Progress != nil {
		pool.Progress = func(o Outcome[*experiments.Table]) {
			ev := event(o)
			ev.Trace, tracers[o.Index] = tracers[o.Index], nil
			opts.Progress(ev)
		}
	}
	if opts.Stream != nil {
		pool.Stream = func(o Outcome[*experiments.Table]) { opts.Stream(event(o)) }
	}
	outs := pool.Run(ctx)

	results := make([]Result, len(ids))
	for k, id := range ids {
		r := Result{ID: id}
		per := make([]*experiments.Table, 0, trials)
		var failNotes []string
		for _, o := range outs[k*trials : (k+1)*trials] {
			if o.Err != nil {
				if r.Err == nil {
					r.Err = o.Err
				}
				failNotes = append(failNotes, "ERROR: "+o.Err.Error())
				continue
			}
			per = append(per, o.Value)
		}
		// Partial merge: the trials that completed still produce a table;
		// the failures become explicit error notes on it, in trial order. A
		// crash or timeout therefore loses only its own cells.
		r.Table = experiments.MergeTrials(per)
		if r.Table != nil && len(failNotes) > 0 {
			// Copy before annotating: MergeTrials returns the sole
			// surviving trial's table itself when only one completed.
			annotated := *r.Table
			annotated.Notes = append(append([]string{}, r.Table.Notes...), failNotes...)
			r.Table = &annotated
		}
		results[k] = r
	}
	return results, ctx.Err()
}
