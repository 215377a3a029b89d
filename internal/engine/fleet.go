package engine

import (
	"context"
	"time"

	"mobileqoe/internal/fleet"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/runner"
)

// RunFleet supervises a compiled fleet's shards. It is the one fleet
// execution path: served jobs call it with scheduling options only and keep
// durability in the result cache, while qoesim -fleet passes its checkpoint
// in — the restored shards, OnComplete to persist each fresh one, StopAfter
// and ShardTimeout. In place of opts.Stream, cell receives one run-log cell
// per shard, in shard order.
func RunFleet(ctx context.Context, r *fleet.Runner, restored map[int]*fleet.ShardResult,
	opts fleet.Options, cell func(runlog.Cell)) *fleet.RunResult {
	spec := r.Spec()
	opts.Stream = func(ev fleet.Event) { cell(shardCell(spec, ev)) }
	return fleet.Run(ctx, r, restored, opts)
}

// shardCell maps one shard event to its run-log cell. A restored shard
// carries Restored and the wall time of the process that ran it, so readers
// and the progress meter can tell replay from fresh execution.
func shardCell(spec *fleet.Spec, ev fleet.Event) runlog.Cell {
	c := runlog.Cell{
		Index: ev.Shard, ID: "fleet:" + spec.Name, Trial: ev.Shard,
		Seed:     fleet.TupleSeed(spec.Seed, uint64(ev.Start)),
		Attempt:  ev.Attempt,
		WallMS:   float64(ev.Elapsed) / float64(time.Millisecond),
		Restored: ev.Restored,
	}
	if ev.Restored && ev.Result != nil {
		c.WallMS = ev.Result.WallMS
	}
	c.SetOutcome(ev.Err)
	return c
}

// RenderFleet renders a fleet's merged table exactly as qoesim prints it,
// through RenderResults.
func RenderFleet(spec *fleet.Spec, m *fleet.Merged, csv bool) []byte {
	out, _ := RenderResults([]runner.Result{{Table: m.Table(spec)}}, csv)
	return out
}
