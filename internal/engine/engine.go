// Package engine is the reusable run-composition layer between the CLIs
// and the simulation stack: a Request (experiment id, scenario document,
// or fleet spec, plus seed/options) in, a rendered Result out.
//
// It extracts what cmd/qoesim/main.go used to do inline — id resolution,
// config assembly, seed-schedule manifests, runner invocation, table
// rendering — so the CLI and the HTTP service (cmd/qoesimd) compose runs
// through one implementation. On top of the stateless Compose/ExecutePlan
// core, Engine adds the serving machinery: a bounded worker/job queue with
// backpressure, deterministic result caching keyed by (document SHA-256,
// seed, code version) via internal/cache, and per-job NDJSON progress logs
// streamed live through internal/runlog.
//
// The cache is trivially correct because runs are pure: a table is a
// deterministic function of (document, normalized config, code version).
// Observation never feeds back into a table: every run — qoesim, the
// simple CLIs, and served jobs — writes its run log, meter, telemetry and
// SLO alerts through one Observer on runner.Options.Stream. What makes a
// run impure — tracing, metrics printing — lives above ExecutePlan in the
// CLI, which does not use the result cache.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mobileqoe/internal/cache"
	"mobileqoe/internal/fleet"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/trace"
)

// ExecutePlan runs a composed experiment/scenario plan on the worker pool;
// opts.Resolve is the plan's. Fleet plans execute through Engine (they need
// the fleet supervisor); passing one here is an error.
func ExecutePlan(ctx context.Context, p *Plan, opts runner.Options) ([]runner.Result, error) {
	if p.Kind == "fleet" {
		return nil, errors.New("engine: fleet plans execute through Engine.Submit, not ExecutePlan")
	}
	opts.Resolve = p.Resolve
	return runner.Run(ctx, p.IDs, p.Cfg, opts)
}

// RenderResults renders merged tables (ASCII table + blank line, or CSV).
// qoesim prints its tables through it and served jobs render their bodies
// with it, so a served result is byte-identical to the CLI's stdout for the
// same request. The returned error is the first per-experiment failure;
// partial tables still render.
func RenderResults(results []runner.Result, csv bool) ([]byte, error) {
	var out []byte
	var firstErr error
	for _, r := range results {
		if r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
		if r.Table == nil {
			continue
		}
		if csv {
			out = append(out, r.Table.CSV()...)
		} else {
			out = append(out, r.Table.String()...)
			out = append(out, '\n')
		}
	}
	return out, firstErr
}

// Config sizes an Engine.
type Config struct {
	// Tool names the engine in run-log manifests ("qoesimd", tests).
	Tool string
	// Workers is the concurrent-job count (default 1: one simulation run
	// at a time; each run still parallelizes its cells via Parallel).
	Workers int
	// QueueDepth bounds the jobs waiting to run (default 8). A full queue
	// rejects submissions with ErrBusy — the service's backpressure signal.
	QueueDepth int
	// Parallel is the per-job runner worker count (<= 0: GOMAXPROCS).
	Parallel int
	// Retries is the per-cell retry budget applied to every job.
	Retries int
	// DefaultTimeout caps a job's wall clock when the request does not ask
	// for one; 0 means no limit.
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied timeouts (0: requests may ask for
	// anything).
	MaxTimeout time.Duration
	// ResultCacheEntries / ResultCacheBytes size the result cache
	// (defaults 256 entries, 64 MiB).
	ResultCacheEntries int
	ResultCacheBytes   int64
	// JobHistory bounds retained finished jobs (default 512).
	JobHistory int
	// AllowLocalFiles permits requests referencing local files (CLI use).
	AllowLocalFiles bool
}

// Sentinel submit errors.
var (
	// ErrBusy: the job queue is full. Retry after a job drains.
	ErrBusy = errors.New("engine: job queue full")
	// ErrDraining: the engine is shutting down and accepts no new work.
	ErrDraining = errors.New("engine: draining")
)

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle: Queued → Running → Done | Failed. Cache-served jobs are
// born Done.
const (
	Queued  JobState = "queued"
	Running JobState = "running"
	Done    JobState = "done"
	Failed  JobState = "failed"
)

// Job is one submitted request's execution. Its ID derives from the cache
// key, so resubmitting an identical request addresses the same job.
type Job struct {
	ID  string
	Key string
	Req Request

	plan    *Plan
	timeout time.Duration
	log     *FollowBuf
	done    chan struct{}

	mu       sync.Mutex
	state    JobState
	err      error
	output   []byte
	cached   bool
	created  time.Time
	started  time.Time
	finished time.Time
}

// Status is a point-in-time job snapshot for APIs.
type Status struct {
	ID       string   `json:"id"`
	Key      string   `json:"key"`
	Kind     string   `json:"kind"`
	State    JobState `json:"state"`
	Cached   bool     `json:"cached"`
	Error    string   `json:"error,omitempty"`
	Created  string   `json:"created"`
	WallMS   float64  `json:"wall_ms,omitempty"`
	OutBytes int      `json:"output_bytes,omitempty"`
}

// State returns the job's current lifecycle position.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cached reports whether the result came from the result cache.
func (j *Job) Cached() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cached
}

// Output returns the rendered result. It errors until the job is Done.
func (j *Job) Output() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case Done:
		return j.output, nil
	case Failed:
		return nil, j.err
	default:
		return nil, fmt.Errorf("engine: job %s is %s", j.ID, j.state)
	}
}

// Err returns the job's failure (nil unless Failed).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Log returns the job's NDJSON progress log for replay/follow.
func (j *Job) Log() *FollowBuf { return j.log }

// Wait blocks until the job finishes or ctx is done. It returns the job's
// failure, not ctx cancellation of other waiters — callers polling a shared
// deduplicated job all see the same outcome.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Snapshot renders the job's Status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID: j.ID, Key: j.Key, Kind: j.plan.Kind, State: j.state,
		Cached:  j.cached,
		Created: j.created.UTC().Format(time.RFC3339),
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		s.WallMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	s.OutBytes = len(j.output)
	return s
}

func (j *Job) finish(state JobState, output []byte, err error) {
	j.mu.Lock()
	j.state = state
	j.output = output
	j.err = err
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// Engine runs jobs on a bounded queue with a deterministic result cache.
type Engine struct {
	cfg     Config
	results *cache.Cache[string, []byte]

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job ids, oldest first, for history eviction
	live     map[string]*Job
	queue    chan *Job
	draining bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	submitted, deduped, cacheServed atomic.Int64
	completed, failed, rejected     atomic.Int64
	running                         atomic.Int64
}

// New starts an engine's workers. Close (or Drain) it when done.
func New(cfg Config) *Engine {
	if cfg.Tool == "" {
		cfg.Tool = "engine"
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.ResultCacheEntries <= 0 {
		cfg.ResultCacheEntries = 256
	}
	if cfg.ResultCacheBytes <= 0 {
		cfg.ResultCacheBytes = 64 << 20
	}
	if cfg.JobHistory <= 0 {
		cfg.JobHistory = 512
	}
	e := &Engine{
		cfg: cfg,
		results: cache.New[string, []byte](cache.Config{
			MaxEntries: cfg.ResultCacheEntries,
			MaxBytes:   cfg.ResultCacheBytes,
		}),
		jobs:  map[string]*Job{},
		live:  map[string]*Job{},
		queue: make(chan *Job, cfg.QueueDepth),
	}
	e.ctx, e.cancel = context.WithCancel(context.Background())
	for w := 0; w < cfg.Workers; w++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for j := range e.queue {
				e.execute(j)
			}
		}()
	}
	return e
}

// Submit validates, composes, and enqueues a request.
//
// Fast paths before the queue: a result-cache hit returns a Done job
// immediately (Cached true), and a submission whose key matches a live job
// attaches to that job instead of enqueueing a duplicate. A full queue
// returns ErrBusy; a draining engine returns ErrDraining; any other error
// is a request error.
func (e *Engine) Submit(req Request) (*Job, error) {
	e.submitted.Add(1)
	p, err := Compose(req, ComposeOptions{AllowLocalFiles: e.cfg.AllowLocalFiles})
	if err != nil {
		return nil, err
	}
	timeout := e.cfg.DefaultTimeout
	if req.TimeoutS > 0 {
		timeout = requestTimeout(req.TimeoutS, e.cfg.MaxTimeout)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		return nil, ErrDraining
	}
	if out, ok := e.results.Get(p.Key); ok {
		e.cacheServed.Add(1)
		j := e.newJobLocked(p, req, timeout)
		e.writeCachedLog(j)
		j.mu.Lock()
		j.cached = true
		j.mu.Unlock()
		j.finish(Done, out, nil)
		return j, nil
	}
	if j, ok := e.live[p.Key]; ok {
		e.deduped.Add(1)
		return j, nil
	}
	j := e.newJobLocked(p, req, timeout)
	select {
	case e.queue <- j:
		e.live[p.Key] = j
		return j, nil
	default:
		e.rejected.Add(1)
		delete(e.jobs, j.ID)
		e.dropOrderLocked(j.ID)
		return nil, ErrBusy
	}
}

// requestTimeout converts a request's timeout_s, capped at limit when
// limit > 0. The cap applies in seconds, before the conversion: a float
// beyond time.Duration's range (about 292 years) would otherwise wrap
// negative, slip past the cap, and leave the job with no timeout at all.
func requestTimeout(secs float64, limit time.Duration) time.Duration {
	if limit > 0 && secs >= limit.Seconds() {
		return limit
	}
	if ns := secs * float64(time.Second); ns < float64(math.MaxInt64) {
		return time.Duration(ns)
	}
	return math.MaxInt64
}

func (e *Engine) newJobLocked(p *Plan, req Request, timeout time.Duration) *Job {
	j := &Job{
		ID:      p.Key[:16],
		Key:     p.Key,
		Req:     req,
		plan:    p,
		timeout: timeout,
		log:     NewFollowBuf(),
		done:    make(chan struct{}),
		state:   Queued,
		created: time.Now(),
	}
	if _, ok := e.jobs[j.ID]; ok {
		// Same key resubmitted after the old job left the result cache: the
		// new job takes over the id (identical request → identical bytes).
		e.dropOrderLocked(j.ID)
	}
	e.jobs[j.ID] = j
	e.order = append(e.order, j.ID)
	e.evictHistoryLocked()
	return j
}

func (e *Engine) dropOrderLocked(id string) {
	for i, v := range e.order {
		if v == id {
			e.order = append(e.order[:i], e.order[i+1:]...)
			return
		}
	}
}

// evictHistoryLocked drops the oldest finished jobs beyond JobHistory.
// Live jobs are never dropped, so the map is bounded by history + queue +
// workers.
func (e *Engine) evictHistoryLocked() {
	excess := len(e.order) - e.cfg.JobHistory
	for i := 0; excess > 0 && i < len(e.order); {
		id := e.order[i]
		j := e.jobs[id]
		if st := j.State(); st == Done || st == Failed {
			delete(e.jobs, id)
			e.order = append(e.order[:i], e.order[i+1:]...)
			excess--
			continue
		}
		i++
	}
}

// Job looks up a job by id.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Jobs snapshots all retained jobs, oldest first.
func (e *Engine) Jobs() []Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Status, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.jobs[id].Snapshot())
	}
	return out
}

// Draining reports whether the engine has stopped accepting submissions.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// testHookRunning, when non-nil, runs on the worker goroutine as a job
// transitions to Running — the seam backpressure tests use to hold a worker
// busy deterministically.
var testHookRunning func(*Job)

// execute runs one job on a worker goroutine.
func (e *Engine) execute(j *Job) {
	e.running.Add(1)
	defer e.running.Add(-1)
	j.mu.Lock()
	j.state = Running
	j.started = time.Now()
	j.mu.Unlock()
	if testHookRunning != nil {
		testHookRunning(j)
	}

	ctx := e.ctx
	if j.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
		defer cancel()
	}

	// The result cache's singleflight wraps the run itself, so identical
	// keys racing across engines (or arriving as one finishes) still
	// execute once. Failures are not cached: the loader error propagates
	// and the next submission retries cold.
	out, err := e.results.GetOrLoad(j.Key, func() ([]byte, int64, error) {
		b, lerr := e.runPlan(ctx, j)
		if lerr != nil {
			return nil, 0, lerr
		}
		return b, int64(len(b) + len(j.Key)), nil
	})

	e.mu.Lock()
	delete(e.live, j.Key)
	e.mu.Unlock()

	if err != nil {
		e.failed.Add(1)
		j.finish(Failed, nil, err)
		return
	}
	e.completed.Add(1)
	j.finish(Done, out, nil)
}

// runPlan executes the job's plan, writing its run log through one
// Observer into the job's FollowBuf.
func (e *Engine) runPlan(ctx context.Context, j *Job) ([]byte, error) {
	total := len(j.plan.IDs) * j.plan.Manifest.Trials
	if j.plan.Kind == "fleet" {
		total = j.plan.FleetSpec.Shards
	}
	obs, err := e.observe(j, e.cfg.Parallel, total)
	if err != nil {
		return nil, err
	}
	var out []byte
	if j.plan.Kind == "fleet" {
		out, err = e.runFleet(ctx, j, obs)
	} else {
		var results []runner.Result
		results, err = ExecutePlan(ctx, j.plan, runner.Options{
			Parallel: e.cfg.Parallel,
			Retries:  e.cfg.Retries,
			Stream:   obs.Stream,
		})
		if err == nil {
			out, err = RenderResults(results, j.Req.CSV)
		}
	}
	obs.Close(err) // writes into the job's FollowBuf, which cannot fail
	if err != nil {
		return nil, err
	}
	return out, nil
}

// observe starts the Observer writing job j's run log.
func (e *Engine) observe(j *Job, parallel, total int) (*Observer, error) {
	m := j.plan.Manifest
	m.Parallel = parallel
	return NewObserver(e.cfg.Tool, total, m, j.plan.SLO(), Sinks{Log: j.log})
}

// runFleet executes a fleet plan checkpoint-free: the engine serves the
// merged table, durability is the result cache. Interruption or shard
// failure fails the job (and is not cached).
func (e *Engine) runFleet(ctx context.Context, j *Job, obs *Observer) ([]byte, error) {
	spec := j.plan.FleetSpec
	r, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	res := RunFleet(ctx, r, nil, fleet.Options{Parallel: e.cfg.Parallel, Retries: e.cfg.Retries}, obs.Cell)
	switch {
	case res.Interrupted:
		return nil, fmt.Errorf("engine: fleet %s interrupted: %w", spec.Name, ctx.Err())
	case res.Failed > 0 || res.Skipped > 0:
		ferr := fmt.Errorf("engine: fleet %s: %d shards failed, %d skipped", spec.Name, res.Failed, res.Skipped)
		if len(res.Failures) > 0 {
			ferr = fmt.Errorf("%w (first: shard %d: %v)", ferr, res.Failures[0].Shard, res.Failures[0].Err)
		}
		return nil, ferr
	}
	return RenderFleet(spec, res.Merged, j.Req.CSV), nil
}

// writeCachedLog fills a cache-served job's log: a manifest and an
// immediate summary, no cells (nothing executed).
func (e *Engine) writeCachedLog(j *Job) {
	if obs, err := e.observe(j, 0, 0); err == nil {
		obs.Close(nil)
	}
}

// Drain stops accepting submissions, lets queued and running jobs finish,
// and stops the workers. It returns ctx.Err() if the deadline expires
// first (running jobs are then abandoned to Close).
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		close(e.queue)
	}
	e.mu.Unlock()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels running jobs and stops the workers immediately.
func (e *Engine) Close() {
	e.cancel()
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		close(e.queue)
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// Counters is the engine's serving telemetry snapshot. Everything here is
// scheduling-dependent — service-level metrics only, never merged into
// simulation registries.
type Counters struct {
	Submitted, Deduped, CacheServed int64
	Completed, Failed, Rejected     int64
	QueueDepth, Running             int64
	CacheStats                      cache.Stats
}

// Stats snapshots the counters.
func (e *Engine) Stats() Counters {
	return Counters{
		Submitted:   e.submitted.Load(),
		Deduped:     e.deduped.Load(),
		CacheServed: e.cacheServed.Load(),
		Completed:   e.completed.Load(),
		Failed:      e.failed.Load(),
		Rejected:    e.rejected.Load(),
		QueueDepth:  int64(len(e.queue)),
		Running:     e.running.Load(),
		CacheStats:  e.results.Stats(),
	}
}

// PublishMetrics writes the engine counters and its result-cache stats into
// a registry (use a fresh registry per scrape; counters accumulate).
func (e *Engine) PublishMetrics(m *trace.Metrics) {
	s := e.Stats()
	m.Counter("engine.requests").Add(float64(s.Submitted))
	m.Counter("engine.deduped").Add(float64(s.Deduped))
	m.Counter("engine.cache_served").Add(float64(s.CacheServed))
	m.Counter("engine.completed").Add(float64(s.Completed))
	m.Counter("engine.failed").Add(float64(s.Failed))
	m.Counter("engine.rejected").Add(float64(s.Rejected))
	m.Counter("engine.queue_depth").Add(float64(s.QueueDepth))
	m.Counter("engine.running").Add(float64(s.Running))
	cache.PublishStats(m, "engine.results", s.CacheStats)
}
