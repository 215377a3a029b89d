package engine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mobileqoe/internal/fleet"
	"mobileqoe/internal/runlog"
)

// TestShardCell pins the one fleet.Event → runlog.Cell mapping: seeds come
// from the shard's first tuple, a first-try shard logs attempt 0, a restored
// shard keeps the wall time of the process that ran it, and a failed shard
// carries its error class.
func TestShardCell(t *testing.T) {
	spec := &fleet.Spec{Name: "cells", Seed: 11}
	fresh := shardCell(spec, fleet.Event{Shard: 2, Start: 10, End: 15, Attempt: 0, Elapsed: 1500 * time.Microsecond})
	want := runlog.Cell{Index: 2, ID: "fleet:cells", Trial: 2, Seed: fleet.TupleSeed(11, 10),
		Attempt: 0, Status: "ok", WallMS: 1.5}
	if fresh != want {
		t.Errorf("fresh shard cell = %+v, want %+v", fresh, want)
	}
	restored := shardCell(spec, fleet.Event{Shard: 0, Restored: true, Elapsed: time.Millisecond,
		Result: &fleet.ShardResult{WallMS: 42}})
	if !restored.Restored || restored.WallMS != 42 {
		t.Errorf("restored shard cell = %+v, want restored with the original 42 ms", restored)
	}
	failed := shardCell(spec, fleet.Event{Shard: 1, Attempt: 2,
		Err: fmt.Errorf("fleet: shard 1 aborted: %w", context.Canceled)})
	if failed.Status != "error" || failed.ErrorClass != runlog.ClassifyError(context.Canceled) || failed.Error == "" {
		t.Errorf("failed shard cell = %+v, want an error record", failed)
	}
}
