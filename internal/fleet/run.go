package fleet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mobileqoe/internal/core"
	"mobileqoe/internal/device"
	"mobileqoe/internal/experiments"
	"mobileqoe/internal/fault"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/scenario"
	"mobileqoe/internal/stats"
	"mobileqoe/internal/webpage"
)

// Runner is a compiled spec: catalog lookups resolved, fault plans loaded,
// the shared page corpus built, and the weighted axes turned into
// cumulative pick tables. Compiling once up front means a tuple's hot path
// does no parsing and no file IO. Shard workers share one Runner: all of it
// but the outcome memo is read-only after Compile, and the memo is guarded
// by mu. The memo lives and dies with the Runner, so no run reuses another
// run's simulations.
type Runner struct {
	spec   *Spec
	base   experiments.Config
	corpus []*webpage.Page
	devs   []device.Spec
	nets   []netsim.Config
	plans  []*fault.Plan // index-aligned with spec.FaultPlans; nil = none

	devPick, netPick, wlPick, planPick pickTable

	mu   sync.Mutex
	memo map[tupleKey]outcome // fault-free tuples already simulated
	sims atomic.Int64         // simulations run, memo hits excluded
}

// tupleKey is a tuple's inputs as axis indexes: device, network, workload
// entry, and page (-1 for non-page workloads). Without a fault plan these
// fix the outcome, because the tuple seed reaches nothing in the simulation
// but the fault injector.
type tupleKey struct{ dev, net, wl, page int }

// outcome is what one tuple records: its observed metrics, or the class of
// its error. Only scalars: a core.Result would keep every memoized page
// load's activities alive for the whole run.
type outcome struct {
	obs      [2]observation
	n        int    // obs[:n] were observed
	errClass string // runlog.ClassifyError of a failed tuple, else ""
}

type observation struct {
	metric string
	value  float64
}

// Spec returns the spec this runner was compiled from.
func (r *Runner) Spec() *Spec { return r.spec }

// Compile resolves the spec against the catalogs and loads fault plans.
func (s *Spec) Compile() (*Runner, error) {
	// One base config for the whole fleet, defaulted exactly once; tuples
	// copy it and swap the seed. The corpus is keyed by the spec seed —
	// shared by every tuple — so the per-seed corpus cache holds one entry
	// per fleet, not one per tuple.
	base := experiments.Config{Seed: s.Seed, Pages: s.Pages}.WithDefaults()
	r := &Runner{spec: s, base: base, corpus: base.Corpus(), memo: map[tupleKey]outcome{}}
	for _, d := range s.DeviceMix {
		spec, ok := scenario.DeviceSpec(d.Device)
		if !ok {
			return nil, fmt.Errorf("fleet %s: unknown device %q", s.Name, d.Device)
		}
		r.devs = append(r.devs, spec)
	}
	profiles := netsim.Profiles()
	for _, n := range s.Networks {
		r.nets = append(r.nets, profiles[n.Name])
	}
	for _, p := range s.FaultPlans {
		pl, err := fault.Resolve(p.Plan)
		if err != nil {
			return nil, fmt.Errorf("fleet %s: %w", s.Name, err)
		}
		r.plans = append(r.plans, pl)
	}
	r.devPick = newPickTable(len(s.DeviceMix), func(i int) int { return s.DeviceMix[i].Weight })
	r.netPick = newPickTable(len(s.Networks), func(i int) int { return s.Networks[i].Weight })
	r.wlPick = newPickTable(len(s.Workloads), func(i int) int { return s.Workloads[i].Weight })
	r.planPick = newPickTable(len(s.FaultPlans), func(i int) int { return s.FaultPlans[i].Weight })
	return r, nil
}

// pickTable is a cumulative-weight table for O(entries) weighted draws —
// axes have a handful of entries, so a linear scan beats a binary search's
// branch misses.
type pickTable struct {
	cum   []uint64
	total uint64
}

func newPickTable(n int, weight func(int) int) pickTable {
	t := pickTable{cum: make([]uint64, n)}
	for i := 0; i < n; i++ {
		t.total += uint64(weight(i))
		t.cum[i] = t.total
	}
	return t
}

func (t pickTable) pick(rng *stats.RNG) int {
	r := rng.Uint64() % t.total
	for i, c := range t.cum {
		if r < c {
			return i
		}
	}
	return len(t.cum) - 1 // unreachable: cum[n-1] == total > r
}

// runTuple samples and executes global tuple i into sh. The tuple seed
// TupleSeed(seed, i) feeds the axis draws, the page choice and the fault
// injector, so the outcome is identical no matter which shard, attempt, or
// process runs it. The draw order (device, network, workload, fault plan,
// then page) is part of the seed schedule and must never change.
//
// A tuple without a fault plan is simulated once per Runner: later tuples
// with the same key record the memoized outcome. Two workers that miss the
// same key at once both simulate it, to the same outcome.
func (r *Runner) runTuple(i int, sh *ShardResult) {
	ts := TupleSeed(r.spec.Seed, uint64(i))
	rng := stats.NewRNG(ts)
	k := tupleKey{page: -1}
	k.dev = r.devPick.pick(rng)
	k.net = r.netPick.pick(rng)
	k.wl = r.wlPick.pick(rng)
	pi := r.planPick.pick(rng)
	w := r.spec.Workloads[k.wl]
	if w.Kind == experiments.KindPage {
		k.page = rng.Intn(len(r.corpus))
	}

	sh.count("device", r.spec.DeviceMix[k.dev].Device)
	sh.count("network", r.spec.Networks[k.net].Name)
	sh.count("workload", w.Kind)
	sh.count("fault_plan", r.spec.FaultPlans[pi].Plan)

	if plan := r.plans[pi]; plan != nil {
		sh.record(r.simulate(ts, k, plan))
		return
	}
	r.mu.Lock()
	out, ok := r.memo[k]
	r.mu.Unlock()
	if !ok {
		out = r.simulate(ts, k, nil)
		r.mu.Lock()
		r.memo[k] = out
		r.mu.Unlock()
	}
	sh.record(out)
}

// simulate runs tuple k on a fresh system under tuple seed ts.
func (r *Runner) simulate(ts uint64, k tupleKey, plan *fault.Plan) outcome {
	r.sims.Add(1)
	cfg := r.base
	cfg.Seed = ts
	// WithFaultPlan gives this tuple its own injector sequence rooted at
	// the tuple seed — fault randomness is tuple-local (nil plan: no
	// injection).
	cfg = cfg.WithFaultPlan(plan)
	sys := cfg.NewSystem(r.devs[k.dev], core.WithNetwork(r.nets[k.net]))
	var page *webpage.Page
	if k.page >= 0 {
		page = r.corpus[k.page]
	}
	res, err := r.spec.Workloads[k.wl].Run(cfg, sys, page)
	if err != nil {
		// A failed tuple is population data, not a shard failure: it is
		// counted by error class. (Shard-level trouble — panics, timeouts —
		// is the supervisor's department.)
		return outcome{errClass: runlog.ClassifyError(err)}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	switch {
	case res.Page != nil:
		return outcome{n: 1, obs: [2]observation{{"page.plt_ms", ms(res.Page.PLT)}}}
	case res.Video != nil:
		return outcome{n: 2, obs: [2]observation{
			{"video.startup_ms", ms(res.Video.StartupLatency)},
			{"video.stall_ratio", res.Video.StallRatio}}}
	case res.Call != nil:
		return outcome{n: 2, obs: [2]observation{
			{"call.setup_ms", ms(res.Call.SetupDelay)},
			{"call.fps", res.Call.FrameRate}}}
	default:
		return outcome{n: 1, obs: [2]observation{{"iperf.throughput_mbps", res.Iperf.Throughput.Mbpsf()}}}
	}
}

// shardHook is a test seam: when set, it runs before each shard attempt and
// may fail or panic in the attempt's place (see export_test.go).
var shardHook func(ctx context.Context, shard, attempt int) error

// runShardAttempt executes shard k's whole tuple range. Cancellation is
// checked between tuples — tuples are milliseconds, so an interrupt lands
// promptly without tearing a tuple.
func runShardAttempt(ctx context.Context, r *Runner, k, attempt int) (*ShardResult, error) {
	if shardHook != nil {
		if err := shardHook(ctx, k, attempt); err != nil {
			return nil, err
		}
	}
	start, end := ShardRange(r.spec.Population, r.spec.Shards, k)
	sh := newShardResult(k, start, end)
	for i := start; i < end; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("fleet: shard %d aborted at tuple %d of [%d,%d): %w", k, i, start, end, err)
		}
		r.runTuple(i, sh)
	}
	return sh, nil
}
