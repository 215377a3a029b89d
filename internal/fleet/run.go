package fleet

import (
	"context"
	"fmt"
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
// does no parsing, no file IO, and no map lookups. A Runner is read-only
// after Compile, so shard workers share it freely.
type Runner struct {
	spec   *Spec
	base   experiments.Config
	corpus []*webpage.Page
	devs   []device.Spec
	nets   []netsim.Config
	plans  []*fault.Plan // index-aligned with spec.FaultPlans; nil = none

	devPick, netPick, wlPick, planPick pickTable
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
	r := &Runner{spec: s, base: base, corpus: base.Corpus()}
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

// runTuple samples and executes global tuple i into sh. Everything the
// tuple does — axis draws, page choice, simulation randomness, fault
// injection — derives from TupleSeed(seed, i), so the outcome is identical
// no matter which shard, attempt, or process runs it. The draw order
// (device, network, workload, fault plan, then page) is part of the seed
// schedule and must never change.
func (r *Runner) runTuple(i int, sh *ShardResult) {
	ts := TupleSeed(r.spec.Seed, uint64(i))
	rng := stats.NewRNG(ts)
	di := r.devPick.pick(rng)
	ni := r.netPick.pick(rng)
	wi := r.wlPick.pick(rng)
	pi := r.planPick.pick(rng)
	w := r.spec.Workloads[wi]
	var page *webpage.Page
	if w.Kind == experiments.KindPage {
		page = r.corpus[rng.Intn(len(r.corpus))]
	}

	sh.count("device", r.spec.DeviceMix[di].Device)
	sh.count("network", r.spec.Networks[ni].Name)
	sh.count("workload", w.Kind)
	sh.count("fault_plan", r.spec.FaultPlans[pi].Plan)

	cfg := r.base
	cfg.Seed = ts
	// WithFaultPlan gives this tuple its own injector sequence rooted at
	// the tuple seed — fault randomness is tuple-local, like everything
	// else (nil plan: no injection).
	cfg = cfg.WithFaultPlan(r.plans[pi])
	sys := cfg.NewSystem(r.devs[di], core.WithNetwork(r.nets[ni]))

	res, err := w.Run(cfg, sys, page)
	sh.Tuples++
	if err != nil {
		// A failed tuple is population data, not a shard failure: count it
		// by error class and move on. (Shard-level trouble — panics,
		// timeouts — is the supervisor's department.)
		sh.TuplesFailed++
		sh.TupleErrors[runlog.ClassifyError(err)]++
		return
	}
	switch {
	case res.Page != nil:
		sh.observe("page.plt_ms", float64(res.Page.PLT)/float64(time.Millisecond))
	case res.Video != nil:
		sh.observe("video.startup_ms", float64(res.Video.StartupLatency)/float64(time.Millisecond))
		sh.observe("video.stall_ratio", res.Video.StallRatio)
	case res.Call != nil:
		sh.observe("call.setup_ms", float64(res.Call.SetupDelay)/float64(time.Millisecond))
		sh.observe("call.fps", res.Call.FrameRate)
	default:
		sh.observe("iperf.throughput_mbps", res.Iperf.Throughput.Mbpsf())
	}
}

// shardHook is a test seam: when set, it runs before each shard attempt and
// may fail or panic in the attempt's place (see export_test.go).
var shardHook func(ctx context.Context, shard, attempt int) error

// runShardAttempt executes shard k's whole tuple range. Panics anywhere in
// the simulation stack are contained to the attempt (the supervisor decides
// whether to retry). Cancellation is checked between tuples — tuples are
// milliseconds, so an interrupt lands promptly without tearing a tuple.
func runShardAttempt(ctx context.Context, r *Runner, k, attempt int) (res *ShardResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = fmt.Errorf("fleet: shard %d attempt %d panic: %v", k, attempt, p)
		}
	}()
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
