// Package runner is the scale-out harness for the experiment registry: it
// fans the independent (experiment, trial) cells of a multi-trial run across
// a worker pool and merges the per-trial tables back deterministically.
//
// Each cell constructs its own private simulation world (every registry
// runner builds fresh core.System/sim.Sim instances), so cells share no
// mutable state and need no locks; the only coordination is the work queue
// and the completion channel. Results are merged strictly by cell index —
// never by completion order — which makes a parallel run byte-identical to
// a sequential one with the same Config.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/trace"
)

// Options tune a Run. The zero value runs on GOMAXPROCS workers with no
// timeout, no progress reporting, and no tracing.
type Options struct {
	// Parallel is the worker-goroutine count; <= 0 means GOMAXPROCS.
	Parallel int
	// Timeout aborts the run after this wall-clock duration. Cells already
	// executing finish (the simulation kernel is not preemptible); queued
	// cells fail with an error naming the cell and wrapping the context
	// error. 0 means no limit.
	Timeout time.Duration
	// Retries is how many extra attempts a failed cell gets (a panic inside
	// a registry runner is recovered into an error and counts as a failure).
	// Retry attempt a reruns the cell under experiments.AttemptSeed(seed, a),
	// so a crash tied to one pathological draw does not repeat verbatim.
	// Context cancellation and timeouts are never retried. 0 means one
	// attempt only.
	Retries int
	// Progress, when non-nil, is called once per completed cell. Calls are
	// serialized on the collecting goroutine in completion order, which is
	// nondeterministic — progress is for reporting only and never feeds
	// back into results. Under Trace, a Progress event carries the cell's
	// tracer; a consumer that needs the tracers in cell order re-sequences
	// them itself (NewInorder) and can drop each one once it is used.
	Progress func(Event)
	// Stream, when non-nil, is called once per completed cell in cell order
	// — experiment-major, trial-minor, exactly the order results merge in —
	// regardless of worker count or completion order. The collector buffers
	// out-of-order completions and flushes the contiguous prefix, so Stream
	// sees cell k only after cells 0..k-1; peak buffering is bounded by how
	// far completion order strays from cell order (≤ the cell count).
	//
	// Ordering/determinism contract (pinned by TestStreamDeterministic):
	// for a fixed binary, Config, and ids, the Stream event sequence is
	// identical across runs and across Parallel values in every field
	// except Elapsed — Index, Done, Total, ID, Trial, Seed, Attempt, Err,
	// and Table (including its metrics registry, minus the host-timing
	// rows) are all pure functions of the configuration. Elapsed is host
	// wall time and is the ONLY wall-clock field; consumers comparing or
	// replaying streams must ignore it. Cancellation and timeouts break
	// the guarantee for Err (which cells got cut off depends on timing).
	//
	// Progress and Stream are both serialized on the collecting goroutine:
	// a cell's Progress call happens before its Stream call, and neither
	// feeds back into results. Stream events never carry a tracer, so the
	// reorder window holds no trace memory.
	Stream func(Event)
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
		Attempt: ev.Attempt, Status: "ok",
		WallMS: float64(ev.Elapsed) / float64(time.Millisecond),
	}
	if ev.Err != nil {
		c.Status = "error"
		c.ErrorClass = runlog.ClassifyError(ev.Err)
		c.Error = ev.Err.Error()
	}
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
	Table   *experiments.Table
	Err     error         // first per-trial error, in trial order
	Elapsed time.Duration // summed wall-clock of the experiment's cells
}

// cellFn executes one attempt of one cell. It is a variable so crash tests
// can substitute a panicking or canceling implementation (see export_test.go).
var cellFn = experiments.RunTrialAttempt

// runCellAttempt executes one attempt, recovering a panicking registry
// runner into an error so one crashing cell cannot take down the pool. A
// wedged simulation is NOT a panic: registry runners return the typed
// core.ErrDeadline through the ordinary error path, so a deadlined cell is
// recorded (and retried under its attempt seed, which may dodge a
// fault-induced wedge) without ever tripping this recover.
func runCellAttempt(id string, fn experiments.Runner, cfg experiments.Config, trial, attempt int) (tab *experiments.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			tab, err = nil, fmt.Errorf("attempt %d: panic: %v", attempt, r)
		}
	}()
	if fn != nil {
		return experiments.RunTrialAttemptFn(id, fn, cfg, trial, attempt)
	}
	return cellFn(id, cfg, trial, attempt)
}

// runCell runs one cell to success or exhaustion: up to 1+retries attempts,
// each under its derived attempt seed and, when traced, on a fresh tracer,
// so the returned tracer holds the reported attempt only. Every returned
// error names the cell, so a timed-out run reports which trials never
// started instead of a bare context.DeadlineExceeded.
func runCell(ctx context.Context, id string, fn experiments.Runner, cfg experiments.Config, trial, retries int, traced bool) (*experiments.Table, int, *trace.Tracer, error) {
	var err error
	var tr *trace.Tracer
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err != nil {
				return nil, attempt - 1, tr, err // report the real failure, not the cutoff
			}
			return nil, attempt, nil, fmt.Errorf("%s trial %d: not started: %w", id, trial, cerr)
		}
		if traced {
			tr = trace.New()
			cfg.Trace = tr
		}
		var tab *experiments.Table
		tab, err = runCellAttempt(id, fn, cfg, trial, attempt)
		if err == nil {
			return tab, attempt, tr, nil
		}
		if attempt >= retries {
			return nil, attempt, tr, fmt.Errorf("%s trial %d: failed after %d attempt(s): %w",
				id, trial, attempt+1, err)
		}
	}
}

// Run executes cfg.Trials trials of every listed experiment on a worker
// pool and returns one deterministically merged Result per id. The returned
// error is non-nil only when the context was canceled or the timeout
// expired; per-experiment failures (e.g. an unknown id) are reported in the
// corresponding Result.Err so one bad id cannot discard a long run.
func Run(ctx context.Context, ids []string, cfg experiments.Config, opts Options) ([]Result, error) {
	norm := cfg.WithDefaults()
	trials := norm.Trials
	type cell struct {
		id    string
		trial int
	}
	cells := make([]cell, 0, len(ids)*trials)
	for _, id := range ids {
		for t := 0; t < trials; t++ {
			cells = append(cells, cell{id, t})
		}
	}
	if len(cells) == 0 {
		return nil, nil
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	workers := opts.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	// Workers draw cell indexes from the queue and write only their own
	// slots of these slices, so collection is lock-free by construction;
	// the merge below reads them in cell order once every worker is done.
	tables := make([]*experiments.Table, len(cells))
	errs := make([]error, len(cells))
	took := make([]time.Duration, len(cells))

	queue := make(chan int)
	events := make(chan Event, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				c := cells[i]
				start := time.Now()
				var fn experiments.Runner
				if opts.Resolve != nil {
					fn, _ = opts.Resolve(c.id)
				}
				traced := opts.Trace && (fn != nil || experiments.Describe(c.id) != "")
				// Pass the caller's un-normalized cfg: RunTrialAttempt
				// normalizes once, exactly like experiments.Run.
				var attempt int
				var tr *trace.Tracer
				tables[i], attempt, tr, errs[i] = runCell(ctx, c.id, fn, cfg, c.trial, opts.Retries, traced)
				took[i] = time.Since(start)
				events <- Event{Index: i, ID: c.id, Trial: c.trial, Seed: trialSeed(norm, c.trial),
					Attempt: attempt, Err: errs[i], Table: tables[i], Trace: tr, Elapsed: took[i]}
			}
		}()
	}
	go func() {
		for i := range cells {
			queue <- i
		}
		close(queue)
	}()
	// The collector serializes both callbacks: Progress fires in completion
	// order as events arrive; Stream re-sequences completions into cell
	// order through an Inorder window (see Options.Stream for the contract).
	var seq *Inorder[Event]
	if opts.Stream != nil {
		seq = NewInorder(len(cells), func(sev Event) {
			// Flushed() is the 1-based stream position at emit time, so a
			// streamed event's Done counts cells flushed in cell order.
			sev.Done = seq.Flushed()
			opts.Stream(sev)
		})
	}
	for done := 1; done <= len(cells); done++ {
		ev := <-events
		ev.Done, ev.Total = done, len(cells)
		if opts.Progress != nil {
			opts.Progress(ev)
		}
		if seq != nil {
			ev.Trace = nil
			seq.Put(ev.Index, ev)
		}
	}
	wg.Wait()

	results := make([]Result, len(ids))
	for k, id := range ids {
		r := Result{ID: id}
		per := make([]*experiments.Table, 0, trials)
		var failNotes []string
		for t := 0; t < trials; t++ {
			i := k*trials + t
			r.Elapsed += took[i]
			if errs[i] != nil {
				if r.Err == nil {
					r.Err = errs[i]
				}
				failNotes = append(failNotes, "ERROR: "+errs[i].Error())
				continue
			}
			per = append(per, tables[i])
		}
		// Partial merge: the trials that completed still produce a table;
		// the failures become explicit error notes on it, in trial order. A
		// crash or timeout therefore loses only its own cells.
		r.Table = experiments.MergeTrials(per)
		if r.Table != nil {
			if len(failNotes) > 0 {
				// Copy before annotating: MergeTrials returns the sole
				// surviving trial's table itself when only one completed.
				annotated := *r.Table
				annotated.Notes = append(append([]string{}, r.Table.Notes...), failNotes...)
				r.Table = &annotated
			}
			if r.Table.Metrics != nil {
				// Wall-clock per completed cell, observed strictly in
				// cell-index order (the merge discipline); the values
				// themselves are host timing, the only non-virtual quantity
				// in the registry.
				h := r.Table.Metrics.Histogram("runner.cell_wall_ms")
				for t := 0; t < trials; t++ {
					if errs[k*trials+t] == nil {
						h.Observe(float64(took[k*trials+t]) / float64(time.Millisecond))
					}
				}
			}
		}
		results[k] = r
	}
	return results, ctx.Err()
}

// trialSeed mirrors RunTrial's seed choice for reporting.
func trialSeed(norm experiments.Config, trial int) uint64 {
	if norm.Trials <= 1 {
		return norm.Seed
	}
	return experiments.TrialSeed(norm.Seed, trial)
}
