package cpu

import (
	"fmt"
	"hash/fnv"
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
		stop := false // the loop core.Run drives: step until the work is done
		main := c.NewThread("main", true)
		cycles := []float64{1.234567891e8, 9.87654321e7, 3.3333333e7, 2.71828182e8, 1.41421356e8}
		for i, cy := range cycles {
			last := i == len(cycles)-1
			main.Exec("w", cy, func() {
				r.done = append(r.done, s.Now())
				if last {
					c.Stop()
					stop = true
				}
			})
		}
		s.At(90*time.Millisecond, func() { c.setUserspaceFreq(units.MHz(702)) })
		s.At(210*time.Millisecond, func() { c.setUserspaceFreq(units.MHz(1512)) })
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
		for !stop && s.Step() {
		}
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

// replanAll makes every re-plan of c the ungated one: every core
// re-planned with its load summed afresh from its thread list, rebalance
// always called, and power summed over the cores with no memo. The dirty
// mask, the crowded-core gate and the power memo must reproduce it exactly.
func replanAll(c *CPU) {
	c.reference = true
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
	broken   string // the first planBookkeeping complaint, if any
}

// planBookkeeping reports how the planner's running state disagrees with
// the cores after a re-plan, or "" when it agrees: no core is left dirty,
// the crowded count is the number of cores holding two or more threads, and
// the busy mask has the busy cores' bits.
func planBookkeeping(c *CPU) string {
	crowded := 0
	var busy uint64
	for _, co := range c.cores {
		if len(co.threads) >= 2 {
			crowded++
		}
		if co.busy {
			busy |= 1 << co.id
		}
	}
	switch {
	case c.dirty != 0:
		return fmt.Sprintf("dirty mask %#b left after a re-plan", c.dirty)
	case c.crowded != crowded:
		return fmt.Sprintf("crowded count %d, %d cores hold two or more threads", c.crowded, crowded)
	case c.busyMask != busy:
		return fmt.Sprintf("busy mask %#b, busy cores %#b", c.busyMask, busy)
	}
	return ""
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
					break
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
				c.setUserspaceFreq(units.MHz(op.mhz))
			}
			if msg := planBookkeeping(c); msg != "" && out.broken == "" {
				out.broken = fmt.Sprintf("after op %d at %v: %s", i, s.Now(), msg)
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
	if inc.broken != "" {
		t.Fatalf("%s: %s", name, inc.broken)
	}
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

// schedulerPins are outcomes of fixed random op sequences, recorded before
// the dirty mask, the crowded-core gate and the power memo existed: the
// number of completions and an FNV-1a hash of their "<op>/<task>@<instant>"
// log, the bits of Energy("cpu"), and CoreBusy.
var schedulerPins = []struct {
	layout string
	gov    GovernorKind
	seed   uint64
	done   int
	hash   uint64
	joules uint64
	busy   []time.Duration
}{
	{"single", "PF", 101, 134, 0x1e081c5fd0c1a517, 0x3fe5e3f526555cff, []time.Duration{420806069, 108137670, 254454, 0}},
	{"single", "PF", 202, 125, 0xc6b64fefa4e12b18, 0x3ff176613eb0a5c5, []time.Duration{579797181, 233400669, 52971484, 0}},
	{"biglittle", "PF", 101, 134, 0x7d9493cdf91a40e9, 0x3fdd4817111b8650, []time.Duration{165642287, 27440975, 0, 0, 107199724, 13293824, 0, 0}},
	{"biglittle", "PF", 202, 125, 0xcf2d1f79a77158d9, 0x3fe6cb9979ac72f0, []time.Duration{285827282, 51719797, 5651495, 0, 135272969, 72287, 0, 0}},
	{"single", "IN", 101, 134, 0xf2272cff45f1158e, 0x3fe3cf50ba1cc289, []time.Duration{476438435, 135988525, 29422, 0}},
	{"single", "IN", 202, 125, 0x78f3234c1efd3b9a, 0x3ff0b43bd5b4c053, []time.Duration{593206627, 281269822, 53660244, 0}},
	{"biglittle", "IN", 101, 134, 0x43de55f86ec2ba97, 0x3fd68dc970e3c2b0, []time.Duration{277229312, 46883495, 233793, 0, 154390631, 13723244, 0, 0}},
	{"biglittle", "IN", 202, 125, 0x3f34f6184c973f68, 0x3fe1f032a1f690a8, []time.Duration{353234461, 115141464, 34540755, 0, 205911512, 271078, 0, 0}},
	{"single", "US", 101, 134, 0x9e8277d49ed01569, 0x3fe3c998f5496322, []time.Duration{473806334, 125003438, 35478333, 639051}},
	{"single", "US", 202, 125, 0x3d4f888685841c69, 0x3fe81dd2c5293b91, []time.Duration{762751873, 452677684, 209206099, 1908688}},
	{"biglittle", "US", 101, 134, 0xc24c3ab234ae7a2a, 0x3fd781919c5e1b0e, []time.Duration{267799445, 51706451, 4892263, 73211, 97677966, 13585996, 0, 0}},
	{"biglittle", "US", 202, 125, 0xe8577dd032d9c038, 0x3fdccd3ed4f3fef2, []time.Duration{443397255, 272830567, 48825263, 0, 272488873, 120479, 0, 0}},
	{"single", "OD", 101, 134, 0x421b4ecd015479f2, 0x3fe2cca926f845a6, []time.Duration{557137374, 154185712, 25260088, 0}},
	{"single", "OD", 202, 125, 0xfdd7262f6e1d32d, 0x3ff018f07f1bceb1, []time.Duration{656805301, 297618606, 55439095, 0}},
	{"biglittle", "OD", 101, 134, 0x4bb2eafb795d06ec, 0x3fd4d1ec09138000, []time.Duration{407766992, 73311943, 3205922, 0, 212103550, 23499892, 0, 0}},
	{"biglittle", "OD", 202, 125, 0xa38d9918d0cbcc7c, 0x3fe04e1d3438df72, []time.Duration{434173305, 275709381, 73804960, 0, 231573163, 216863, 0, 0}},
	{"single", "PW", 101, 127, 0xe1c06daa0fe76a48, 0x3fce9fc0b11f714e, []time.Duration{989132427, 580807104, 399310197, 39794316}},
	{"single", "PW", 202, 88, 0x82e945f4b6114b63, 0x3fd1b79ab81e5dd9, []time.Duration{956601527, 704259416, 419473640, 306617741}},
	{"biglittle", "PW", 101, 133, 0x8916600d979925c9, 0x3fca0ad2f2e10b90, []time.Duration{715529269, 209419791, 127849424, 11989882, 322194795, 49851842, 0, 0}},
	{"biglittle", "PW", 202, 125, 0x13a5dda139e1b348, 0x3fd264f8f65ba509, []time.Duration{825526632, 707746784, 272055520, 183262126, 206487582, 0, 0, 0}},
}

// TestSchedulerPinned: the scheduler reproduces, bit for bit, the
// completion instants, busy time and energy it gave before its fast paths,
// on sequences with weight changes, hotplug and (userspace) frequency ops.
func TestSchedulerPinned(t *testing.T) {
	for _, pin := range schedulerPins {
		cfg := bigLittle(pin.gov)
		if pin.layout == "single" {
			cfg = singleCluster(pin.gov)
			cfg.SwitchOverhead = 0
		}
		rng := rand.New(rand.NewPCG(pin.seed, 7))
		ops := randomOps(rng, 160, 800*time.Millisecond, cfg)
		out := runSched(cfg, ops, time.Second, false)
		name := fmt.Sprintf("%s/%s/seed%d", pin.layout, pin.gov, pin.seed)
		if out.broken != "" {
			t.Errorf("%s: %s", name, out.broken)
		}
		h := fnv.New64a()
		for _, d := range out.done {
			h.Write([]byte(d + "\n"))
		}
		if len(out.done) != pin.done || h.Sum64() != pin.hash {
			t.Errorf("%s: %d completions hashing to %#x, pinned %d hashing to %#x",
				name, len(out.done), h.Sum64(), pin.done, pin.hash)
		}
		if got := math.Float64bits(out.joules); got != pin.joules {
			t.Errorf("%s: Energy(cpu) bits %#x (%v J), pinned %#x (%v J)",
				name, got, out.joules, pin.joules, math.Float64frombits(pin.joules))
		}
		if !reflect.DeepEqual(out.busy, pin.busy) {
			t.Errorf("%s: CoreBusy %v, pinned %v", name, out.busy, pin.busy)
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
