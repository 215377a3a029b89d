package fault_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobileqoe/internal/fault"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/stats"
	"mobileqoe/internal/trace"
)

func TestDefaultPlanIsValid(t *testing.T) {
	p := fault.Default()
	if err := p.Validate(); err != nil {
		t.Fatalf("built-in plan invalid: %v", err)
	}
	if len(p.Faults) != len(fault.Kinds()) {
		t.Fatalf("default plan has %d faults, want one per kind (%d)",
			len(p.Faults), len(fault.Kinds()))
	}
	seen := map[fault.Kind]bool{}
	for _, sp := range p.Faults {
		seen[sp.Kind] = true
	}
	for _, k := range fault.Kinds() {
		if !seen[k] {
			t.Errorf("default plan missing kind %q", k)
		}
	}
}

func TestPlanValidationRejections(t *testing.T) {
	cases := []struct {
		name string
		sp   fault.Spec
		want string // substring of the error
	}{
		{"unknown kind", fault.Spec{Kind: "quantum-flux", AtMs: 0, DurMs: 10}, "unknown kind"},
		{"negative at", fault.Spec{Kind: fault.BurstLoss, AtMs: -1, DurMs: 10}, "at_ms"},
		{"zero duration", fault.Spec{Kind: fault.BurstLoss, AtMs: 0, DurMs: 0}, "dur_ms"},
		{"negative duration", fault.Spec{Kind: fault.BurstLoss, AtMs: 0, DurMs: -5}, "dur_ms"},
		{"prob above one", fault.Spec{Kind: fault.ConnReset, AtMs: 0, DurMs: 10, Prob: 1.5}, "prob"},
		{"negative prob", fault.Spec{Kind: fault.ConnReset, AtMs: 0, DurMs: 10, Prob: -0.5}, "prob"},
		{"bad loss rate", fault.Spec{Kind: fault.BurstLoss, AtMs: 0, DurMs: 10, BadLoss: 2}, "bad_loss"},
		{"negative rtt add", fault.Spec{Kind: fault.RTTSpike, AtMs: 0, DurMs: 10, AddRTTMs: -3}, "add_rtt_ms"},
		{"negative delay", fault.Spec{Kind: fault.ServerSlow, AtMs: 0, DurMs: 10, DelayMs: -1}, "delay_ms"},
		{"rate factor above one", fault.Spec{Kind: fault.BandwidthDip, AtMs: 0, DurMs: 10, RateFactor: 1.5}, "rate_factor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &fault.Plan{Faults: []fault.Spec{tc.sp}}
			err := p.Validate()
			if err == nil {
				t.Fatalf("spec %+v validated", tc.sp)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	var nilPlan *fault.Plan
	if err := nilPlan.Validate(); err != nil {
		t.Fatalf("nil plan must validate: %v", err)
	}
}

func TestParsePlanStrict(t *testing.T) {
	good := `{"name":"p","faults":[{"kind":"burst-loss","at_ms":100,"dur_ms":500}]}`
	p, err := fault.ParsePlan([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "p" || len(p.Faults) != 1 || p.Faults[0].Kind != fault.BurstLoss {
		t.Fatalf("parsed plan %+v", p)
	}
	if _, err := fault.ParsePlan([]byte(`{"faults":[{"kind":"burst-loss","at_ms":0,"dur_ms":1,"typo_field":3}]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := fault.ParsePlan([]byte(good + `{"more":"garbage"}`)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, err := fault.ParsePlan([]byte(`{"faults":[{"kind":"nope","at_ms":0,"dur_ms":1}]}`)); err == nil {
		t.Fatal("invalid plan parsed")
	}
}

func TestLoadPlanNamesDefaultToPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(path, []byte(`{"faults":[{"kind":"mem-kill","at_ms":5,"dur_ms":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := fault.LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != path {
		t.Fatalf("Name = %q, want the path", p.Name)
	}
	if _, err := fault.LoadPlan(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestResolveReferences pins the one reader of plan references: the
// built-in names resolve without touching the file system, and anything
// else is a plan file.
func TestResolveReferences(t *testing.T) {
	for _, ref := range []string{"", "none"} {
		if p, err := fault.Resolve(ref); p != nil || err != nil {
			t.Errorf("Resolve(%q) = %v, %v; want no plan", ref, p, err)
		}
	}
	if p, err := fault.Resolve("default"); err != nil || !reflect.DeepEqual(p, fault.Default()) {
		t.Errorf("Resolve(default) = %v, %v; want the default plan", p, err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(`{"faults":[{"kind":"mem-kill","at_ms":5,"dur_ms":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if p, err := fault.Resolve(path); err != nil || p.Name != path {
		t.Errorf("Resolve(file) = %v, %v; want the file's plan", p, err)
	}
	if _, err := fault.Resolve("nonexistent.json"); err == nil {
		t.Error("a missing plan file resolved")
	}
	for ref, want := range map[string]bool{"none": true, "default": true, "": false, "plan.json": false, "Default": false} {
		if got := fault.Builtin(ref); got != want {
			t.Errorf("Builtin(%q) = %v, want %v", ref, got, want)
		}
	}
}

func TestNilInjectorAnswersNoFault(t *testing.T) {
	var i *fault.Injector
	if i.Active(fault.BurstLoss) || i.SegmentLost() || i.ConnResets() ||
		i.DNSTimedOut() || i.ServerErrors() || i.DSPCallFails() {
		t.Fatal("nil injector reported a fault")
	}
	if i.ExtraRTT() != 0 || i.ServerDelay() != 0 || i.RateFactor() != 1 {
		t.Fatal("nil injector injected latency or throttling")
	}
	i.OnFault(fault.MemKill, func() { t.Fatal("observer fired") }) // must not panic
}

func TestEmptyPlanBuildsNilInjector(t *testing.T) {
	s := sim.New()
	if inj := fault.NewInjector(s, nil, nil, nil, 0, nil); inj != nil {
		t.Fatal("nil plan built an injector")
	}
	if inj := fault.NewInjector(s, &fault.Plan{}, nil, nil, 0, nil); inj != nil {
		t.Fatal("empty plan built an injector")
	}
}

// TestWindowsOpenAndClose drives one window of every parameterized kind and
// checks the query methods answer only inside the window.
func TestWindowsOpenAndClose(t *testing.T) {
	s := sim.New()
	p := &fault.Plan{Faults: []fault.Spec{
		{Kind: fault.RTTSpike, AtMs: 100, DurMs: 100, AddRTTMs: 40},
		{Kind: fault.BandwidthDip, AtMs: 100, DurMs: 100, RateFactor: 0.5},
		{Kind: fault.ServerSlow, AtMs: 100, DurMs: 100, DelayMs: 70},
		{Kind: fault.ConnReset, AtMs: 100, DurMs: 100, Prob: 1},
		{Kind: fault.ServerError, AtMs: 100, DurMs: 100, Prob: 1},
		{Kind: fault.DSPFail, AtMs: 100, DurMs: 100, Prob: 1},
		{Kind: fault.DNSTimeout, AtMs: 100, DurMs: 100},
	}}
	inj := fault.NewInjector(s, p, stats.NewRNG(7), nil, 0, nil)
	type probe struct {
		rtt            time.Duration
		rate           float64
		delay          time.Duration
		reset, se, dsp bool
		dns            bool
	}
	sample := func() probe {
		return probe{inj.ExtraRTT(), inj.RateFactor(), inj.ServerDelay(),
			inj.ConnResets(), inj.ServerErrors(), inj.DSPCallFails(), inj.DNSTimedOut()}
	}
	var before, during, after probe
	s.At(50*time.Millisecond, func() { before = sample() })
	s.At(150*time.Millisecond, func() { during = sample() })
	s.At(250*time.Millisecond, func() { after = sample() })
	s.Run()
	clean := probe{0, 1, 0, false, false, false, false}
	if before != clean {
		t.Fatalf("faults before their window: %+v", before)
	}
	if after != clean {
		t.Fatalf("faults after their window: %+v", after)
	}
	want := probe{40 * time.Millisecond, 0.5, 70 * time.Millisecond, true, true, true, true}
	if during != want {
		t.Fatalf("inside the window got %+v, want %+v", during, want)
	}
}

func TestOverlappingWindowsCompound(t *testing.T) {
	s := sim.New()
	p := &fault.Plan{Faults: []fault.Spec{
		{Kind: fault.RTTSpike, AtMs: 0, DurMs: 200, AddRTTMs: 30},
		{Kind: fault.RTTSpike, AtMs: 50, DurMs: 200, AddRTTMs: 20},
		{Kind: fault.BandwidthDip, AtMs: 0, DurMs: 200, RateFactor: 0.5},
		{Kind: fault.BandwidthDip, AtMs: 50, DurMs: 200, RateFactor: 0.5},
	}}
	inj := fault.NewInjector(s, p, nil, nil, 0, nil)
	var rtt time.Duration
	var rate float64
	s.At(100*time.Millisecond, func() { rtt, rate = inj.ExtraRTT(), inj.RateFactor() })
	s.Run()
	if rtt != 50*time.Millisecond {
		t.Fatalf("overlapping spikes: ExtraRTT = %v, want 50ms", rtt)
	}
	if rate != 0.25 {
		t.Fatalf("overlapping dips: RateFactor = %v, want 0.25", rate)
	}
}

func TestBurstLossChain(t *testing.T) {
	// With bad_loss 1, good_loss 0 and a fast good->bad transition, losses
	// must occur inside the window and never outside it.
	s := sim.New()
	p := &fault.Plan{Faults: []fault.Spec{{Kind: fault.BurstLoss, AtMs: 100, DurMs: 100,
		PGoodBad: 0.9, PBadGood: 0.1, GoodLoss: 1e-9, BadLoss: 0.999}}}
	inj := fault.NewInjector(s, p, stats.NewRNG(3), nil, 0, nil)
	losses := 0
	s.At(50*time.Millisecond, func() {
		if inj.SegmentLost() {
			t.Error("segment lost before the burst window")
		}
	})
	s.At(150*time.Millisecond, func() {
		for k := 0; k < 200; k++ {
			if inj.SegmentLost() {
				losses++
			}
		}
	})
	s.At(250*time.Millisecond, func() {
		if inj.SegmentLost() {
			t.Error("segment lost after the burst window")
		}
	})
	s.Run()
	if losses < 100 {
		t.Fatalf("only %d/200 segments lost in a heavy burst", losses)
	}
}

func TestOnFaultObserverFiresAtOpen(t *testing.T) {
	s := sim.New()
	p := &fault.Plan{Faults: []fault.Spec{{Kind: fault.MemKill, AtMs: 500, DurMs: 10}}}
	inj := fault.NewInjector(s, p, nil, nil, 0, nil)
	var at time.Duration
	inj.OnFault(fault.MemKill, func() { at = s.Now() })
	s.Run()
	if at != 500*time.Millisecond {
		t.Fatalf("observer fired at %v, want 500ms", at)
	}
}

// TestTraceEventsPairInstantsWithRecoverySpans checks the observability
// contract the profile.FaultsRecovered rule relies on: every window emits
// one fault instant and one recovery span bracketing it.
func TestTraceEventsPairInstantsWithRecoverySpans(t *testing.T) {
	s := sim.New()
	tr := trace.New()
	m := trace.NewMetrics()
	inj := fault.NewInjector(s, fault.Default(), stats.NewRNG(1), tr, 1, m)
	if inj == nil {
		t.Fatal("no injector")
	}
	s.Run()
	instants := map[string]int{}
	spans := map[string][]trace.Event{}
	for _, e := range tr.Events() {
		switch {
		case e.Kind == trace.KindInstant && strings.HasPrefix(e.Name, "fault:"):
			instants[strings.TrimPrefix(e.Name, "fault:")]++
		case e.Kind == trace.KindSpan && strings.HasPrefix(e.Name, "recovered:"):
			spans[strings.TrimPrefix(e.Name, "recovered:")] = append(spans[strings.TrimPrefix(e.Name, "recovered:")], e)
		}
	}
	for _, k := range fault.Kinds() {
		if instants[string(k)] != 1 {
			t.Errorf("kind %s: %d fault instants, want 1", k, instants[string(k)])
		}
		if len(spans[string(k)]) != 1 {
			t.Errorf("kind %s: %d recovery spans, want 1", k, len(spans[string(k)]))
		}
	}
	if got := m.Counter("fault.injected").Value(); got != float64(len(fault.Default().Faults)) {
		t.Errorf("fault.injected = %g, want %d", got, len(fault.Default().Faults))
	}
}

// genPlan builds a pseudo-random valid plan from a seed (the generator the
// replay property below and the fuzz harness share).
func genPlan(seed uint64) *fault.Plan {
	rng := stats.NewRNG(seed)
	kinds := fault.Kinds()
	n := 1 + int(rng.Float64()*6)
	p := &fault.Plan{Name: "gen"}
	for k := 0; k < n; k++ {
		sp := fault.Spec{
			Kind:  kinds[int(rng.Float64()*float64(len(kinds)))],
			AtMs:  rng.Float64() * 2000,
			DurMs: 1 + rng.Float64()*1500,
			Prob:  rng.Float64(),
		}
		p.Faults = append(p.Faults, sp)
	}
	return p
}

// replay runs a fixed query schedule against the plan and returns the full
// trace the injector emitted plus every query answer.
func replay(t *testing.T, p *fault.Plan, seed uint64) ([]trace.Event, []string) {
	t.Helper()
	s := sim.New()
	tr := trace.New()
	inj := fault.NewInjector(s, p, stats.NewRNG(seed), tr, 1, nil)
	var answers []string
	for ms := 0; ms < 4000; ms += 37 {
		at := time.Duration(ms) * time.Millisecond
		s.At(at, func() {
			answers = append(answers, strings.Join([]string{
				boolStr(inj.SegmentLost()), inj.ExtraRTT().String(),
				floatStr(inj.RateFactor()), boolStr(inj.ConnResets()),
				boolStr(inj.DNSTimedOut()), inj.ServerDelay().String(),
				boolStr(inj.ServerErrors()), boolStr(inj.DSPCallFails()),
			}, ","))
		})
	}
	s.Run()
	return tr.Events(), answers
}

func boolStr(b bool) string {
	if b {
		return "t"
	}
	return "f"
}

func floatStr(f float64) string { return fmt.Sprintf("%g", f) }

// TestReplayIsDeterministic is the replay property the harness depends on:
// any generated plan, replayed twice at the same seed, yields identical
// traces and identical query answers.
func TestReplayIsDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		p := genPlan(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("generator produced an invalid plan at seed %d: %v", seed, err)
		}
		ev1, ans1 := replay(t, p, seed*11)
		ev2, ans2 := replay(t, p, seed*11)
		if !reflect.DeepEqual(ev1, ev2) {
			t.Fatalf("seed %d: traces differ across replays", seed)
		}
		if !reflect.DeepEqual(ans1, ans2) {
			t.Fatalf("seed %d: query answers differ across replays", seed)
		}
		// A different injector seed must (almost always) change at least the
		// stochastic answers when stochastic windows exist; the trace shape
		// (windows open/close) stays identical either way.
		ev3, _ := replay(t, p, seed*11+1)
		if len(ev3) != len(ev1) {
			t.Fatalf("seed %d: window schedule depends on the injector seed", seed)
		}
	}
}
