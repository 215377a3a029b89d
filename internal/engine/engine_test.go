package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mobileqoe/internal/fault"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/telemetry"
	"mobileqoe/internal/trace"
)

// scenarioDoc builds a tiny two-point clock sweep (distinct per name so
// tests can generate distinct cache keys at will).
func scenarioDoc(name string) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{
		"name": %q,
		"title": "engine test sweep",
		"device": "nexus4",
		"workload": {"kind": "page"},
		"axis": {"param": "clock_mhz", "values": [594, 1512]}
	}`, name))
}

// scenarioDocTrials is scenarioDoc with a default trial count.
func scenarioDocTrials(name string, trials int) json.RawMessage {
	doc := scenarioDoc(name)
	return json.RawMessage(fmt.Sprintf(`%s, "trials": %d}`, doc[:len(doc)-1], trials))
}

// hugeFleetDoc asks for 10^12 shards, one slot each in the supervisor's
// in-order window; Validate must refuse it before anything is allocated.
var hugeFleetDoc = json.RawMessage(`{"name":"huge","population":1000000000000,"shards":1000000000000,` +
	`"device_mix":[{"device":"pixel2","weight":1}],"workloads":[{"kind":"page","weight":1}]}`)

var fleetDoc = json.RawMessage(`{
	"name": "engtest",
	"population": 6,
	"seed": 11,
	"pages": 2,
	"device_mix": [{"device": "pixel2", "weight": 1}],
	"workloads": [{"kind": "page", "weight": 1}]
}`)

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Tool == "" {
		cfg.Tool = "engine-test"
	}
	e := New(cfg)
	t.Cleanup(e.Close)
	return e
}

// runJob submits req and waits for its job, as qoesimd's handlers do.
func runJob(ctx context.Context, e *Engine, req Request) (*Job, error) {
	j, err := e.Submit(req)
	if err != nil {
		return nil, err
	}
	return j, j.Wait(ctx)
}

// logBytes snapshots a job's run log.
func logBytes(j *Job) []byte {
	data, _, _ := j.Log().next(0)
	return append([]byte(nil), data...)
}

// sequentialReference renders a request the way a direct, cache-free,
// single-worker run would — the byte-identity oracle for engine outputs.
func sequentialReference(t *testing.T, req Request) []byte {
	t.Helper()
	p, err := Compose(req, ComposeOptions{})
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	results, err := ExecutePlan(context.Background(), p, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatalf("ExecutePlan: %v", err)
	}
	out, err := RenderResults(results, req.CSV)
	if err != nil {
		t.Fatalf("RenderResults: %v", err)
	}
	return out
}

func TestParseRequestStrict(t *testing.T) {
	if _, err := ParseRequest([]byte(`{"experiment": "all", "bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	for _, tail := range []string{` {}`, `}`, `]`} {
		if _, err := ParseRequest([]byte(`{"experiment": "fig3a"}` + tail)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Fatalf("trailing %s: err = %v, want trailing data", tail, err)
		}
	}
	r, err := ParseRequest([]byte(`{"experiment": "fig3a", "seed": 7, "csv": true}`))
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if r.Experiment != "fig3a" || r.Seed != 7 || !r.CSV {
		t.Fatalf("decoded %+v", r)
	}
}

func TestComposeValidation(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		opt  ComposeOptions
		want string
	}{
		{"no kind", Request{}, ComposeOptions{}, "exactly one"},
		{"two kinds", Request{Experiment: "fig3a", Scenario: scenarioDoc("x")}, ComposeOptions{}, "exactly one"},
		{"unknown experiment", Request{Experiment: "fig99"}, ComposeOptions{}, "unknown experiment"},
		{"path without local files", Request{ScenarioPath: "web.json"}, ComposeOptions{}, "server-local"},
		{"fleet path without local files", Request{FleetPath: "fleet.json"}, ComposeOptions{}, "server-local"},
		{"bad scenario json", Request{Scenario: json.RawMessage(`{"name": 3}`)}, ComposeOptions{}, ""},
		{"negative pages", Request{Experiment: "fig3a", Pages: -1}, ComposeOptions{}, "pages"},
		{"negative pages at full scale", Request{Experiment: "fig3a", Pages: -1, Full: true}, ComposeOptions{}, "pages"},
		{"huge trials", Request{Experiment: "table1", Trials: 1_000_000_000_000}, ComposeOptions{}, "cell limit"},
		{"trials times ids", Request{Experiment: "all", Trials: MaxCells}, ComposeOptions{}, "cell limit"},
		{"huge scenario default trials", Request{Scenario: scenarioDocTrials("t", 1_000_000_000_000)}, ComposeOptions{}, "cell limit"},
		{"huge fleet shards", Request{Fleet: hugeFleetDoc}, ComposeOptions{}, "shards"},
	}
	for _, tc := range cases {
		_, err := Compose(tc.req, tc.opt)
		if err == nil {
			t.Fatalf("%s: composed without error", tc.name)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func faultPlanDoc(ref string) json.RawMessage {
	return json.RawMessage(`{
		"name": "faulty",
		"title": "t",
		"device": "nexus4",
		"workload": {"kind": "page"},
		"axis": {"param": "clock_mhz", "values": [594]},
		"fault_plan": "` + ref + `"
	}`)
}

func TestComposeRejectsFaultPlanFileWhenServing(t *testing.T) {
	if _, err := Compose(Request{Scenario: faultPlanDoc("plan.json")}, ComposeOptions{}); err == nil ||
		!strings.Contains(err.Error(), "fault plan file") {
		t.Fatalf("fault-plan file reference not rejected: %v", err)
	}
}

// TestComposeServesBuiltinFaultPlans: a served scenario may name a
// built-in plan, which resolves as -faults resolves it.
func TestComposeServesBuiltinFaultPlans(t *testing.T) {
	p, err := Compose(Request{Scenario: faultPlanDoc("default")}, ComposeOptions{})
	if err != nil {
		t.Fatalf("fault_plan default not servable: %v", err)
	}
	if !reflect.DeepEqual(p.Cfg.Faults, fault.Default()) {
		t.Fatalf("fault_plan default resolved to %+v, want the built-in plan", p.Cfg.Faults)
	}
	p, err = Compose(Request{Scenario: faultPlanDoc("none")}, ComposeOptions{})
	if err != nil || p.Cfg.Faults != nil {
		t.Fatalf("fault_plan none: plan %+v, err %v; want no plan", p.Cfg.Faults, err)
	}
}

func TestComposeKeyDeterministic(t *testing.T) {
	req := Request{Scenario: scenarioDoc("keyed"), Seed: 5, Pages: 2}
	a, err := Compose(req, ComposeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compose(req, ComposeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key != b.Key {
		t.Fatalf("same request produced keys %s and %s", a.Key, b.Key)
	}
	// TimeoutS is policy, not identity.
	c, _ := Compose(Request{Scenario: scenarioDoc("keyed"), Seed: 5, Pages: 2, TimeoutS: 9}, ComposeOptions{})
	if c.Key != a.Key {
		t.Fatal("timeout_s changed the cache key")
	}
	for name, other := range map[string]Request{
		"seed":     {Scenario: scenarioDoc("keyed"), Seed: 6, Pages: 2},
		"pages":    {Scenario: scenarioDoc("keyed"), Seed: 5, Pages: 3},
		"csv":      {Scenario: scenarioDoc("keyed"), Seed: 5, Pages: 2, CSV: true},
		"document": {Scenario: scenarioDoc("keyed2"), Seed: 5, Pages: 2},
	} {
		o, err := Compose(other, ComposeOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.Key == a.Key {
			t.Fatalf("%s variation did not change the cache key", name)
		}
	}
}

func TestComposeManifest(t *testing.T) {
	p, err := Compose(Request{Scenario: scenarioDoc("mani"), Seed: 3, Trials: 2, Pages: 2}, ComposeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := p.Manifest
	if len(m.Experiments) != 1 || m.Experiments[0] != "scenario:mani" {
		t.Fatalf("manifest experiments = %v", m.Experiments)
	}
	if m.Seed != 3 || m.Trials != 2 || m.SeedSchedule != SeedSchedule {
		t.Fatalf("manifest seed/trials/schedule = %d/%d/%q", m.Seed, m.Trials, m.SeedSchedule)
	}
	if m.ScenarioSHA256 == "" || m.ScenarioSHA256 != p.DocSHA256 {
		t.Fatalf("manifest sha %q vs plan sha %q", m.ScenarioSHA256, p.DocSHA256)
	}
}

func TestExecutePlanRejectsFleet(t *testing.T) {
	p, err := Compose(Request{Fleet: fleetDoc}, ComposeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecutePlan(context.Background(), p, runner.Options{}); err == nil {
		t.Fatal("fleet plan accepted by ExecutePlan")
	}
}

// TestHugeTimeoutGetsMaxTimeout: a timeout_s beyond time.Duration's range
// must clamp to MaxTimeout (or, uncapped, to the largest duration) instead
// of wrapping negative and running with no timeout.
func TestHugeTimeoutGetsMaxTimeout(t *testing.T) {
	const maxTimeout = 90 * time.Second
	for _, c := range []struct {
		timeoutS float64
		limit    time.Duration
		want     time.Duration
	}{
		{1e300, maxTimeout, maxTimeout},
		{9.3e9, maxTimeout, maxTimeout},
		{math.MaxFloat64, maxTimeout, maxTimeout},
		{30, maxTimeout, 30 * time.Second},
		{1e300, 0, math.MaxInt64},
		{1.5, 0, 1500 * time.Millisecond},
	} {
		if got := requestTimeout(c.timeoutS, c.limit); got != c.want {
			t.Errorf("requestTimeout(%g, %v) = %v, want %v", c.timeoutS, c.limit, got, c.want)
		}
	}

	e := newTestEngine(t, Config{MaxTimeout: maxTimeout})
	req, err := ParseRequest([]byte(`{"experiment": "table1", "timeout_s": 1e300}`))
	if err != nil {
		t.Fatal(err)
	}
	j, err := e.Submit(*req)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.timeout; got != maxTimeout {
		t.Fatalf("job timeout = %v, want MaxTimeout %v", got, maxTimeout)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestColdCachedConcurrentByteIdentical is the acceptance pin: a cold run, a
// cache-served rerun, and a burst of concurrent identical submissions all
// return byte-identical output, with the loader executing exactly once.
func TestColdCachedConcurrentByteIdentical(t *testing.T) {
	req := Request{Scenario: scenarioDoc("ident"), Seed: 4, Pages: 2}
	want := sequentialReference(t, req)
	if len(want) == 0 {
		t.Fatal("empty reference output")
	}

	e := newTestEngine(t, Config{Workers: 2, QueueDepth: 16, Parallel: 2})
	ctx := context.Background()

	cold, err := runJob(ctx, e, req)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	out, err := cold.Output()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("cold output differs from sequential reference:\n%s\n---\n%s", out, want)
	}
	if cold.Cached() {
		t.Fatal("cold run reported cached")
	}

	warm, err := runJob(ctx, e, req)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if !warm.Cached() {
		t.Fatal("identical rerun was not served from the result cache")
	}
	wout, _ := warm.Output()
	if !bytes.Equal(wout, want) {
		t.Fatal("cached output differs from cold output")
	}

	// Concurrent identical submissions on a fresh engine: exactly one load.
	e2 := newTestEngine(t, Config{Workers: 2, QueueDepth: 64, Parallel: 2})
	const n = 8
	outs := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := runJob(ctx, e2, req)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = j.Output()
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent submission %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], want) {
			t.Fatalf("concurrent submission %d output differs from reference", i)
		}
	}
	if loads := e2.Stats().CacheStats.Loads; loads != 1 {
		t.Fatalf("concurrent identical submissions loaded %d times, want 1", loads)
	}
	st := e2.Stats()
	if st.Deduped+st.CacheServed != n-1 {
		t.Fatalf("deduped=%d cacheServed=%d, want them to cover %d duplicate submissions",
			st.Deduped, st.CacheServed, n-1)
	}
}

// TestConcurrentDistinctScenarios runs different documents concurrently and
// checks each against its own sequential reference.
func TestConcurrentDistinctScenarios(t *testing.T) {
	reqs := []Request{
		{Scenario: scenarioDoc("mix_a"), Seed: 1, Pages: 2},
		{Scenario: scenarioDoc("mix_b"), Seed: 2, Pages: 2},
		{Experiment: "fig3a", Seed: 1, Pages: 2, CSV: true},
	}
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		want[i] = sequentialReference(t, r)
	}
	e := newTestEngine(t, Config{Workers: 3, QueueDepth: 16, Parallel: 2})
	var wg sync.WaitGroup
	errs := make([]error, len(reqs))
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r Request) {
			defer wg.Done()
			j, err := runJob(context.Background(), e, r)
			if err != nil {
				errs[i] = err
				return
			}
			out, err := j.Output()
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(out, want[i]) {
				errs[i] = fmt.Errorf("request %d output differs from its sequential reference", i)
			}
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestFleetJobByteIdenticalAndCached(t *testing.T) {
	req := Request{Fleet: fleetDoc}
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 4, Parallel: 2})
	cold, err := runJob(context.Background(), e, req)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	out, err := cold.Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "engtest") {
		t.Fatalf("fleet table missing spec name:\n%s", out)
	}
	warm, err := runJob(context.Background(), e, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached() {
		t.Fatal("identical fleet rerun not cache-served")
	}
	wout, _ := warm.Output()
	if !bytes.Equal(out, wout) {
		t.Fatal("cached fleet output differs")
	}
	// Fleet logs validate too: manifest names the fleet, cells cover shards.
	counts, err := runlog.Validate(bytes.NewReader(logBytes(cold)))
	if err != nil {
		t.Fatalf("fleet run log invalid: %v", err)
	}
	if len(counts.Manifest.Experiments) != 1 || counts.Manifest.Experiments[0] != "fleet:engtest" {
		t.Fatalf("fleet manifest experiments = %v", counts.Manifest.Experiments)
	}
	if counts.Cells == 0 || !counts.HasSummary || counts.Summary.Status != "ok" {
		t.Fatalf("fleet log counts = %+v", counts)
	}
}

func TestJobLogIsValidNDJSON(t *testing.T) {
	req := Request{Scenario: scenarioDoc("logged"), Seed: 2, Trials: 2, Pages: 2}
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 4, Parallel: 0, Tool: "engine-test"})
	j, err := runJob(context.Background(), e, req)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := runlog.Validate(bytes.NewReader(logBytes(j)))
	if err != nil {
		t.Fatalf("run log invalid: %v", err)
	}
	if counts.Cells != 2 || counts.CellsOK != 2 || counts.CellsFailed != 0 {
		t.Fatalf("cells = %+v", counts)
	}
	if !counts.HasSummary || counts.Summary.Status != "ok" || counts.Summary.CellsOK != 2 {
		t.Fatalf("summary = %+v", counts.Summary)
	}
	m := counts.Manifest
	if m.Tool != "engine-test" || m.Trials != 2 || m.SeedSchedule != SeedSchedule {
		t.Fatalf("manifest = %+v", m)
	}
	if m.Parallel != runtime.GOMAXPROCS(0) {
		t.Fatalf("manifest parallel = %d, want the resolved default %d", m.Parallel, runtime.GOMAXPROCS(0))
	}
	if m.ScenarioSHA256 == "" {
		t.Fatal("manifest missing scenario sha")
	}

	// Cache-served jobs still produce a valid (manifest + summary) log.
	warm, err := runJob(context.Background(), e, req)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := runlog.Validate(bytes.NewReader(logBytes(warm)))
	if err != nil {
		t.Fatalf("cached job log invalid: %v", err)
	}
	if wc.Cells != 0 || !wc.HasSummary {
		t.Fatalf("cached job log counts = %+v", wc)
	}
}

func TestQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	testHookRunning = func(*Job) {
		started <- struct{}{}
		<-release
	}
	defer func() { testHookRunning = nil }()

	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 1, Parallel: 1})
	defer close(release)

	if _, err := e.Submit(Request{Scenario: scenarioDoc("bp_run"), Pages: 2}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	<-started // worker is now held busy
	if _, err := e.Submit(Request{Scenario: scenarioDoc("bp_queued"), Pages: 2}); err != nil {
		t.Fatalf("second submit (fills queue): %v", err)
	}
	if _, err := e.Submit(Request{Scenario: scenarioDoc("bp_reject"), Pages: 2}); err != ErrBusy {
		t.Fatalf("third submit: got %v, want ErrBusy", err)
	}
	if got := e.Stats().Rejected; got != 1 {
		t.Fatalf("rejected counter = %d", got)
	}
	// Duplicates of the queued job still dedup instead of rejecting.
	if _, err := e.Submit(Request{Scenario: scenarioDoc("bp_queued"), Pages: 2}); err != nil {
		t.Fatalf("duplicate of queued job: %v", err)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 4, Parallel: 1})
	req := Request{Scenario: scenarioDoc("drain"), Pages: 2}
	j, err := e.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if j.State() != Done {
		t.Fatalf("in-flight job state after drain = %s", j.State())
	}
	if _, err := e.Submit(req); err != ErrDraining {
		t.Fatalf("post-drain submit: got %v, want ErrDraining", err)
	}
}

func TestJobHistoryBounded(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 8, Parallel: 1, JobHistory: 2})
	ctx := context.Background()
	var last *Job
	for i := 0; i < 4; i++ {
		j, err := runJob(ctx, e, Request{Scenario: scenarioDoc(fmt.Sprintf("hist_%d", i)), Pages: 2})
		if err != nil {
			t.Fatal(err)
		}
		last = j
	}
	jobs := e.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("retained %d jobs, want 2", len(jobs))
	}
	if _, ok := e.Job(last.ID); !ok {
		t.Fatal("newest job evicted from history")
	}
}

func TestFailedRunNotCached(t *testing.T) {
	// An unknown-in-registry id inside an otherwise valid plan: build one by
	// hand so Compose's validation doesn't catch it first.
	p, err := Compose(Request{Scenario: scenarioDoc("failer"), Pages: 2}, ComposeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.IDs = []string{"scenario:not_resolved"} // Resolve declines, registry misses
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 4, Parallel: 1})
	j := e.submitPlan(t, p)
	if err := j.Wait(context.Background()); err == nil {
		t.Fatal("job with unresolvable id succeeded")
	}
	if j.State() != Failed {
		t.Fatalf("state = %s", j.State())
	}
	if _, err := j.Output(); err == nil {
		t.Fatal("failed job returned output")
	}
	s := e.Stats().CacheStats
	if s.Entries != 0 {
		t.Fatalf("failed run was cached: %+v", s)
	}
	if e.Stats().Failed != 1 {
		t.Fatalf("failed counter = %d", e.Stats().Failed)
	}
	// The log still closes with a failed summary.
	counts, err := runlog.Validate(bytes.NewReader(logBytes(j)))
	if err != nil {
		t.Fatalf("failed job log invalid: %v", err)
	}
	if counts.Summary.Status != "failed" {
		t.Fatalf("summary status = %q", counts.Summary.Status)
	}
}

// submitPlan enqueues a hand-built plan, bypassing Compose — test-only.
func (e *Engine) submitPlan(t *testing.T, p *Plan) *Job {
	t.Helper()
	e.mu.Lock()
	j := e.newJobLocked(p, Request{}, 0)
	select {
	case e.queue <- j:
		e.live[p.Key] = j
	default:
		e.mu.Unlock()
		t.Fatal("queue full")
	}
	e.mu.Unlock()
	return j
}

func TestPublishMetricsRendersClean(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 4, Parallel: 1})
	if _, err := runJob(context.Background(), e, Request{Scenario: scenarioDoc("pubm"), Pages: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := runJob(context.Background(), e, Request{Scenario: scenarioDoc("pubm"), Pages: 2}); err != nil {
		t.Fatal(err)
	}
	reg := trace.NewMetrics()
	e.PublishMetrics(reg)
	var buf bytes.Buffer
	if err := telemetry.Render(&buf, reg); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"mobileqoe_engine_requests 2",
		"mobileqoe_engine_cache_served 1",
		"mobileqoe_engine_completed 1",
		"mobileqoe_cache_engine_results_hits 1",
		"mobileqoe_cache_engine_results_loads 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if err := telemetry.Lint(text); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}
}

func TestFollowBufReplayAndFollow(t *testing.T) {
	b := NewFollowBuf()
	b.Write([]byte("line1\n"))

	var got bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- b.Follow(context.Background(), func(p []byte) error {
			got.Write(p)
			return nil
		})
	}()

	b.Write([]byte("line2\n"))
	b.Write([]byte("line3\n"))
	b.Close()
	if err := <-done; err != nil {
		t.Fatalf("Follow: %v", err)
	}
	if got.String() != "line1\nline2\nline3\n" {
		t.Fatalf("followed %q", got.String())
	}
}

func TestFollowBufContextCancel(t *testing.T) {
	b := NewFollowBuf()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- b.Follow(ctx, func([]byte) error { return nil })
	}()
	runtime.Gosched()
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Follow returned %v, want context.Canceled", err)
	}
}

func TestFollowBufEmitError(t *testing.T) {
	b := NewFollowBuf()
	b.Write([]byte("x"))
	wantErr := fmt.Errorf("client gone")
	err := b.Follow(context.Background(), func([]byte) error { return wantErr })
	if err != wantErr {
		t.Fatalf("Follow returned %v", err)
	}
}

// TestStreamedLogMatchesFinalLog pins the streaming contract: following a
// job's log live yields exactly the bytes a post-hoc read returns.
func TestStreamedLogMatchesFinalLog(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, QueueDepth: 4, Parallel: 2})
	j, err := e.Submit(Request{Scenario: scenarioDoc("streamed"), Trials: 2, Pages: 2})
	if err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	if err := j.Log().Follow(context.Background(), func(p []byte) error {
		streamed.Write(p)
		return nil
	}); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), logBytes(j)) {
		t.Fatal("live-followed log differs from final log bytes")
	}
	if _, err := runlog.Validate(bytes.NewReader(streamed.Bytes())); err != nil {
		t.Fatalf("streamed log invalid: %v", err)
	}
}
