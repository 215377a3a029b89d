package cpu

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"mobileqoe/internal/device"
	"mobileqoe/internal/energy"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/units"
)

// TestAccountingIndependentOfObservation: a thread's completion instants and
// retired cycles do not depend on unrelated work on another core, and
// neither they nor the CPU's energy depend on how often busy time is read.
func TestAccountingIndependentOfObservation(t *testing.T) {
	type result struct {
		done     []time.Duration
		executed float64
		joules   float64
	}
	run := func(neighbour, ticker bool) result {
		s := sim.New()
		m := energy.NewMeter(s.Now)
		cfg := singleCluster(Userspace)
		cfg.UserspaceFreq = units.MHz(1026)
		cfg.Big.IPC = 1.37 // rates that are not round numbers
		cfg.Obs.Meter = m
		c := New(s, cfg)
		var r result
		main := c.NewThread("main", true)
		cycles := []float64{1.234567891e8, 9.87654321e7, 3.3333333e7, 2.71828182e8, 1.41421356e8}
		for i, cy := range cycles {
			last := i == len(cycles)-1
			main.Exec("w", cy, func() {
				r.done = append(r.done, s.Now())
				if last {
					c.Stop()
					s.Stop()
				}
			})
		}
		s.At(90*time.Millisecond, func() { c.SetUserspaceFreq(units.MHz(702)) })
		s.At(210*time.Millisecond, func() { c.SetUserspaceFreq(units.MHz(1512)) })
		if neighbour {
			// A chain of short tasks on a core of its own.
			other := c.NewThread("other", false)
			var next func()
			next = func() { other.Exec("tick", 333333, next) }
			s.At(time.Millisecond, next)
		}
		if ticker {
			s.NewTicker(time.Millisecond, func() { c.CoreBusy() })
		}
		s.Run()
		r.executed = main.Executed()
		r.joules = m.Energy("cpu")
		return r
	}
	base := run(false, false)
	if len(base.done) != 5 {
		t.Fatalf("main completed %d tasks, want 5", len(base.done))
	}
	same := func(name string, got result, energyToo bool) {
		t.Helper()
		if !reflect.DeepEqual(got.done, base.done) {
			t.Errorf("%s: tasks done at %v, alone at %v", name, got.done, base.done)
		}
		if got.executed != base.executed {
			t.Errorf("%s: Executed() = %v, alone %v", name, got.executed, base.executed)
		}
		if energyToo && got.joules != base.joules {
			t.Errorf("%s: Energy(cpu) = %v, unobserved %v", name, got.joules, base.joules)
		}
	}
	same("unrelated thread", run(true, false), false)
	same("CoreBusy ticker", run(false, true), true)
}

// replanAll makes every re-plan of c cover every core, with each core's
// load summed afresh from its thread list: the full re-planning the
// incremental planner must reproduce exactly.
func replanAll(c *CPU) {
	c.beforePlan = func() {
		for _, co := range c.cores {
			c.changed(co)
		}
	}
}

// schedOp is one scheduler operation applied at a virtual instant.
type schedOp struct {
	at     time.Duration
	kind   int // opExec, opWeight, opOnline or opFreq
	thread int
	cycles float64 // opExec: task cost
	chain  float64 // opExec: follow-up task queued from done; < 0 for none
	weight float64 // opWeight
	cores  int     // opOnline
	mhz    float64 // opFreq (userspace governor only)
}

const (
	opExec = iota
	opWeight
	opOnline
	opFreq
	numOps
)

// schedThreads is how many threads an op sequence drives; even ones are
// foreground.
const schedThreads = 5

// schedOutcome is everything the comparison checks.
type schedOutcome struct {
	done     []string // "<op>/<task>@<instant>" in completion order
	executed []float64
	busy     []time.Duration
	joules   float64
}

func bigLittle(gov GovernorKind) Config {
	return Config{
		Big:             device.Cluster{Cores: 4, FMin: units.MHz(400), FMax: units.MHz(2100), IPC: 1.55},
		Little:          &device.Cluster{Cores: 4, FMin: units.MHz(400), FMax: units.MHz(1500), IPC: 0.95},
		ForegroundOnBig: true,
		Governor:        gov,
	}
}

// runSched applies ops to a fresh CPU until horizon, with incremental or
// full re-planning.
func runSched(cfg Config, ops []schedOp, horizon time.Duration, full bool) schedOutcome {
	s := sim.New()
	m := energy.NewMeter(s.Now)
	cfg.Obs.Meter = m
	c := New(s, cfg)
	if full {
		replanAll(c)
	}
	threads := make([]*Thread, schedThreads)
	for i := range threads {
		threads[i] = c.NewThread(fmt.Sprintf("t%d", i), i%2 == 0)
	}
	var out schedOutcome
	record := func(op int, task string) func() {
		return func() { out.done = append(out.done, fmt.Sprintf("%d/%s@%d", op, task, s.Now())) }
	}
	for i, op := range ops {
		s.At(op.at, func() {
			th := threads[op.thread]
			switch op.kind {
			case opExec:
				if op.chain < 0 {
					th.Exec("x", op.cycles, record(i, "x"))
					return
				}
				next := threads[(op.thread+1)%schedThreads]
				th.Exec("x", op.cycles, func() {
					record(i, "x")()
					next.Exec("chain", op.chain, record(i, "chain"))
				})
			case opWeight:
				th.SetWeight(op.weight)
			case opOnline:
				c.SetOnlineCores(op.cores)
			case opFreq:
				c.SetUserspaceFreq(units.MHz(op.mhz))
			}
		})
	}
	s.RunUntil(horizon)
	c.Stop()
	for _, th := range threads {
		out.executed = append(out.executed, th.Executed())
	}
	out.busy = c.CoreBusy()
	out.joules = m.Energy("cpu")
	return out
}

// checkIncremental fails t unless incremental and full re-planning of ops
// agree on every completion instant, Executed, CoreBusy and Energy.
func checkIncremental(t *testing.T, name string, cfg Config, ops []schedOp, horizon time.Duration) {
	t.Helper()
	inc := runSched(cfg, ops, horizon, false)
	ref := runSched(cfg, ops, horizon, true)
	if !reflect.DeepEqual(inc.done, ref.done) {
		t.Fatalf("%s: completions differ\nincremental %v\nfull        %v", name, inc.done, ref.done)
	}
	if !reflect.DeepEqual(inc.executed, ref.executed) {
		t.Fatalf("%s: Executed differs: incremental %v, full %v", name, inc.executed, ref.executed)
	}
	if !reflect.DeepEqual(inc.busy, ref.busy) {
		t.Fatalf("%s: CoreBusy differs: incremental %v, full %v", name, inc.busy, ref.busy)
	}
	if inc.joules != ref.joules {
		t.Fatalf("%s: Energy(cpu) differs: incremental %v, full %v", name, inc.joules, ref.joules)
	}
}

// randomOps draws n operations over [0, span) from rng; opFreq only under
// the userspace governor.
func randomOps(rng *rand.Rand, n int, span time.Duration, cfg Config) []schedOp {
	total := cfg.Big.Cores
	if cfg.Little != nil {
		total += cfg.Little.Cores
	}
	weights := []float64{0.5, 1, 2, RTWeightThreshold, 8}
	ops := make([]schedOp, n)
	for i := range ops {
		op := schedOp{at: time.Duration(rng.Int64N(int64(span))), thread: rng.IntN(schedThreads), chain: -1}
		switch k := rng.IntN(10); {
		case k < 6:
			op.kind = opExec
			op.cycles = randomCycles(rng)
			if rng.IntN(3) == 0 {
				op.chain = randomCycles(rng)
			}
		case k < 8:
			op.kind = opWeight
			op.weight = weights[rng.IntN(len(weights))]
		case k < 9 || cfg.Governor != Userspace:
			op.kind = opOnline
			op.cores = 1 + rng.IntN(total)
		default:
			op.kind = opFreq
			op.mhz = 300 + 2000*rng.Float64()
		}
		ops[i] = op
	}
	return ops
}

// randomCycles returns a task cost: zero one time in eight, else spread
// over four decades.
func randomCycles(rng *rand.Rand) float64 {
	if rng.IntN(8) == 0 {
		return 0
	}
	return 1e4 * math.Pow(10, 4*rng.Float64())
}

// TestIncrementalMatchesFullReschedule: re-planning only the dirty cores
// gives exactly what re-planning every core gives, for random operation
// sequences on single-cluster and big.LITTLE CPUs under every governor.
func TestIncrementalMatchesFullReschedule(t *testing.T) {
	for _, gov := range Governors() {
		single := singleCluster(gov)
		single.SwitchOverhead = 0 // default overhead: non-round rates
		for _, tc := range []struct {
			name string
			cfg  Config
		}{{"single", single}, {"biglittle", bigLittle(gov)}} {
			for seed := uint64(1); seed <= 12; seed++ {
				rng := rand.New(rand.NewPCG(seed, 0))
				ops := randomOps(rng, 120, 600*time.Millisecond, tc.cfg)
				name := fmt.Sprintf("%s/%s/seed%d", tc.name, gov, seed)
				checkIncremental(t, name, tc.cfg, ops, time.Second)
			}
		}
	}
}

// decodeOps turns fuzz bytes into a configuration and an op sequence: the
// first byte picks the cluster layout and governor, then every four bytes
// are one op (kind and thread, two parameters, delay since the last op).
func decodeOps(data []byte) (Config, []schedOp) {
	var head byte
	if len(data) > 0 {
		head, data = data[0], data[1:]
	}
	gov := Governors()[int(head>>1)%len(Governors())]
	cfg := singleCluster(gov)
	cfg.SwitchOverhead = 0
	total := cfg.Big.Cores
	if head&1 == 1 {
		cfg = bigLittle(gov)
		total += cfg.Little.Cores
	}
	var ops []schedOp
	var at time.Duration
	for ; len(data) >= 4; data = data[4:] {
		b0, p, q, dt := data[0], data[1], data[2], data[3]
		at += time.Duration(dt) * 97 * time.Microsecond
		op := schedOp{at: at, kind: int(b0>>4) % numOps, thread: int(b0&0x0f) % schedThreads, chain: -1}
		switch op.kind {
		case opExec:
			op.cycles = cyclesFrom(p)
			if q&1 == 1 {
				op.chain = cyclesFrom(q >> 1)
			}
		case opWeight:
			op.weight = 0.25 + float64(p)/16
		case opOnline:
			op.cores = 1 + int(p)%total
		case opFreq:
			if gov != Userspace {
				continue
			}
			op.mhz = 300 + 8*float64(p)
		}
		ops = append(ops, op)
	}
	return cfg, ops
}

// cyclesFrom maps a byte to a task cost: zero for 0, else 1e3 to ~1e9
// cycles on a log scale.
func cyclesFrom(b byte) float64 {
	if b == 0 {
		return 0
	}
	return 1e3 * math.Pow(10, float64(b)/42.5)
}

// FuzzScheduler: the incremental planner matches full re-planning on op
// sequences decoded from fuzz bytes.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 0x00, 200, 3, 1, 0x11, 150, 0, 2, 0x20, 1, 0, 5})
	f.Add([]byte{5, 0x02, 220, 0, 0, 0x13, 99, 7, 1, 0x30, 3, 0, 9, 0x04, 0, 0, 0})
	f.Add([]byte{3, 0x01, 255, 255, 0, 0x21, 0, 0, 40, 0x12, 60, 0, 1, 0x03, 180, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*256 {
			return // keep each run short
		}
		cfg, ops := decodeOps(data)
		checkIncremental(t, "fuzz", cfg, ops, 2*time.Second)
	})
}
