package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"mobileqoe/internal/engine"
	"mobileqoe/internal/fleet"
)

// Exit codes for -fleet. 0 and 1 mean what they mean everywhere in qoesim;
// 3 is distinct so wrappers can tell "interrupted, checkpointed, resumable"
// from "failed" without parsing stderr.
const (
	exitOK          = 0
	exitFailed      = 1
	exitUsage       = 2
	exitInterrupted = 3
)

// runFleet executes one composed fleet plan end to end: apply the shard
// override and (re)validate the spec, create or reopen the checkpoint, run
// the shards through the engine's fleet path with interrupt handling, and
// either print the merged table (complete) or a resume hint (interrupted).
func runFleet(ctx context.Context, o *options, plan *engine.Plan, stdout, stderr io.Writer) int {
	if o.checkpoint == "" {
		fmt.Fprintln(stderr, "qoesim: -fleet requires -checkpoint <dir> (every fleet run is resumable)")
		return exitUsage
	}
	spec := plan.FleetSpec
	if o.shards > 0 {
		spec.Shards = o.shards
	}
	if o.resume && o.shards == 0 {
		// A prior -fleet-shards override is recorded in the manifest; adopt
		// it so plain -resume continues the original partition.
		m, merr := fleet.ReadManifest(o.checkpoint)
		if merr != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", merr)
			return exitFailed
		}
		spec.Shards = m.Shards
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(stderr, "qoesim: %v\n", err)
		return exitUsage
	}

	var cp *fleet.Checkpoint
	var restored map[int]*fleet.ShardResult
	var err error
	if o.resume {
		var warnings []string
		cp, restored, warnings, err = fleet.Open(o.checkpoint, spec)
		if err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
			return exitFailed
		}
		for _, w := range warnings {
			fmt.Fprintf(stderr, "qoesim: checkpoint: %s\n", w)
		}
		fmt.Fprintf(stderr, "qoesim: resuming fleet %s: %d/%d shards restored from %s\n",
			spec.Name, len(restored), spec.Shards, o.checkpoint)
	} else {
		cp, err = fleet.Create(o.checkpoint, spec)
		if err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
			return exitFailed
		}
	}
	r, err := spec.Compile()
	if err != nil {
		fmt.Fprintf(stderr, "qoesim: %v\n", err)
		return exitUsage
	}

	// First signal cancels the run context: the supervisor aborts between
	// tuples, completed shards are already durable, and we exit 3 with a
	// resume hint. A second signal kills immediately (NotifyContext restores
	// the default handler after stop) — and even that loses nothing beyond
	// the in-flight shards, which is the invariant the package tests.
	ctx, stop := fleet.NotifyInterrupt(ctx)
	defer stop()

	manifest := plan.Manifest
	manifest.Parallel = o.parallel
	obs, err := o.ob.RunLog.Start(stderr, "qoesim", spec.Shards, manifest, nil)
	if err != nil {
		fmt.Fprintf(stderr, "qoesim: %v\n", err)
		return exitFailed
	}

	var progress func(fleet.Event)
	if spec.Shards > 1 && !o.ob.RunLog.Progress.Enabled() {
		progress = func(ev fleet.Event) {
			status := ""
			switch {
			case ev.Err != nil:
				status = " error: " + ev.Err.Error()
			case ev.Restored:
				status = " (restored)"
			}
			fmt.Fprintf(stderr, "qoesim: [%d/%d] shard %d tuples [%d,%d) (%v)%s\n",
				ev.Done, ev.Total, ev.Shard, ev.Start, ev.End,
				ev.Elapsed.Round(time.Millisecond), status)
		}
	}
	if err := cp.WriteState(fleet.RunState{Status: "running", Restored: len(restored)}); err != nil {
		fmt.Fprintf(stderr, "qoesim: %v\n", err)
		return exitFailed
	}

	start := time.Now()
	// One run-log cell per shard, in shard order (obs is nil-safe).
	res := engine.RunFleet(ctx, r, restored, fleet.Options{
		Parallel:     o.parallel,
		ShardTimeout: o.shardTimeout,
		Retries:      o.retries,
		StopAfter:    o.stopAfter,
		OnComplete:   cp.WriteShard,
		Progress:     progress,
	}, obs.Cell)

	state := fleet.RunState{
		Completed: res.Completed, Restored: res.Restored,
		Failed: res.Failed, Skipped: res.Skipped,
	}
	if res.Interrupted {
		state.Status = "interrupted"
		if err := cp.WriteState(state); err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
		}
		if cerr := obs.CloseTruncated(); cerr != nil {
			fmt.Fprintf(stderr, "qoesim: runlog: %v\n", cerr)
		}
		fmt.Fprintf(stderr, "qoesim: fleet %s interrupted: %d/%d shards checkpointed in %s (%v); resume with: qoesim -fleet %s -checkpoint %s -resume\n",
			spec.Name, res.Completed+res.Restored, spec.Shards, o.checkpoint,
			time.Since(start).Round(time.Millisecond), o.fleet, o.checkpoint)
		return exitInterrupted
	}

	exit := exitOK
	if res.Failed > 0 || res.Skipped > 0 {
		state.Status = "failed"
		for _, f := range res.Failures {
			fmt.Fprintf(stderr, "qoesim: fleet shard %d failed after %d attempts: %v\n", f.Shard, f.Attempts, f.Err)
		}
		if res.Skipped > 0 {
			fmt.Fprintf(stderr, "qoesim: fleet: %d shards skipped by the circuit breaker\n", res.Skipped)
		}
		exit = exitFailed
	} else {
		state.Status = "complete"
		if err := cp.WriteFinal(res.Merged); err != nil {
			fmt.Fprintf(stderr, "qoesim: %v\n", err)
			exit = exitFailed
		}
	}
	if err := cp.WriteState(state); err != nil {
		fmt.Fprintf(stderr, "qoesim: %v\n", err)
		exit = exitFailed
	}
	if cerr := obs.Close(nil); cerr != nil {
		fmt.Fprintf(stderr, "qoesim: runlog: %v\n", cerr)
		exit = exitFailed
	}

	stdout.Write(engine.RenderFleet(spec, res.Merged, o.csv))
	fmt.Fprintf(stderr, "qoesim: fleet %s: %d tuples across %d shards (%d restored) in %v\n",
		spec.Name, res.Merged.Tuples, spec.Shards, res.Restored,
		time.Since(start).Round(time.Millisecond))
	return exit
}
