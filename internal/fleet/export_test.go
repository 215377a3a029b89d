package fleet

import "context"

// SetShardHook installs a test seam that runs before each shard attempt and
// may fail or panic in its place. Returns a restore func.
func SetShardHook(fn func(ctx context.Context, shard, attempt int) error) func() {
	old := shardHook
	shardHook = fn
	return func() { shardHook = old }
}

// Simulations reports how many tuples r has simulated, memo hits excluded.
func (r *Runner) Simulations() int64 { return r.sims.Load() }
