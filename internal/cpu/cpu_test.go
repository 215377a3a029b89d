package cpu

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mobileqoe/internal/device"
	"mobileqoe/internal/energy"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/units"
)

func singleCluster(gov GovernorKind) Config {
	return Config{
		Big: device.Cluster{Cores: 4, FMin: units.MHz(384), FMax: units.MHz(1512),
			Steps: device.Nexus4FreqSteps(), IPC: 1.0},
		Governor:       gov,
		SwitchOverhead: NoSwitchOverhead, // exact arithmetic for these tests
	}
}

func TestTaskDurationAtFixedFreq(t *testing.T) {
	s := sim.New()
	c := New(s, singleCluster(Performance))
	var doneAt time.Duration
	th := c.NewThread("main", true)
	// 1512e6 cycles at 1512 MHz = exactly 1 second.
	th.Exec("work", 1512e6, func() { doneAt = s.Now(); c.Stop() })
	s.Run()
	if diff := (doneAt - time.Second).Abs(); diff > time.Microsecond {
		t.Fatalf("task took %v, want 1s", doneAt)
	}
}

func TestPowersaveRunsAtFMin(t *testing.T) {
	s := sim.New()
	c := New(s, singleCluster(Powersave))
	var doneAt time.Duration
	th := c.NewThread("main", true)
	th.Exec("work", 384e6, func() { doneAt = s.Now(); c.Stop() })
	s.Run()
	if diff := (doneAt - time.Second).Abs(); diff > time.Microsecond {
		t.Fatalf("powersave task took %v, want 1s at 384MHz", doneAt)
	}
}

func TestUserspaceSweep(t *testing.T) {
	// The clock-sweep mechanism: same work takes 1512/384 ≈ 3.94x longer at
	// the lowest operating point.
	durations := map[string]time.Duration{}
	for _, mhz := range []float64{384, 1512} {
		s := sim.New()
		cfg := singleCluster(Userspace)
		cfg.UserspaceFreq = units.MHz(mhz)
		c := New(s, cfg)
		th := c.NewThread("main", true)
		var doneAt time.Duration
		th.Exec("work", 3e9, func() { doneAt = s.Now(); c.Stop() })
		s.Run()
		durations[units.MHz(mhz).String()] = doneAt
	}
	ratio := float64(durations["384MHz"]) / float64(durations["1.51GHz"])
	if math.Abs(ratio-1512.0/384.0) > 0.01 {
		t.Fatalf("slowdown ratio = %v, want %v", ratio, 1512.0/384.0)
	}
}

func TestSetUserspaceFreqMidRun(t *testing.T) {
	s := sim.New()
	cfg := singleCluster(Userspace)
	cfg.UserspaceFreq = units.MHz(1512)
	c := New(s, cfg)
	th := c.NewThread("main", true)
	var doneAt time.Duration
	// 1512e6 cycles; halve frequency halfway: 0.5s at 1512MHz does 756e6,
	// the remaining 756e6 at 756->snap(810) MHz.
	th.Exec("work", 1512e6, func() { doneAt = s.Now(); c.Stop() })
	s.At(500*time.Millisecond, func() { c.setUserspaceFreq(units.MHz(810)) })
	s.Run()
	want := 500*time.Millisecond + units.DurationFor(756e6, units.MHz(810))
	if diff := (doneAt - want).Abs(); diff > 10*time.Microsecond {
		t.Fatalf("doneAt = %v, want %v", doneAt, want)
	}
}

func TestParallelThreadsUseMultipleCores(t *testing.T) {
	s := sim.New()
	c := New(s, singleCluster(Performance))
	finished := 0
	var last time.Duration
	for i := 0; i < 4; i++ {
		th := c.NewThread("worker", false)
		th.Exec("chunk", 1512e6, func() {
			finished++
			last = s.Now()
			if finished == 4 {
				c.Stop()
			}
		})
	}
	s.Run()
	// 4 independent threads on 4 cores: all finish at ~1 s, not 4 s.
	if diff := (last - time.Second).Abs(); diff > time.Millisecond {
		t.Fatalf("4-way parallel finished at %v, want ~1s", last)
	}
}

func TestProcessorSharingOnOneCore(t *testing.T) {
	s := sim.New()
	cfg := singleCluster(Performance)
	c := New(s, cfg)
	c.SetOnlineCores(1)
	finished := 0
	var last time.Duration
	for i := 0; i < 4; i++ {
		th := c.NewThread("worker", false)
		th.Exec("chunk", 1512e6, func() {
			finished++
			last = s.Now()
			if finished == 4 {
				c.Stop()
			}
		})
	}
	s.Run()
	// Equal sharing of one core: everyone finishes at ~4 s.
	if diff := (last - 4*time.Second).Abs(); diff > 10*time.Millisecond {
		t.Fatalf("shared completion at %v, want ~4s", last)
	}
}

func TestHotplugMigratesWork(t *testing.T) {
	s := sim.New()
	c := New(s, singleCluster(Performance))
	var doneAt time.Duration
	done := 0
	for i := 0; i < 2; i++ {
		th := c.NewThread("w", false)
		th.Exec("x", 1512e6, func() {
			done++
			doneAt = s.Now()
			if done == 2 {
				c.Stop()
			}
		})
	}
	// Drop to a single core halfway through.
	s.At(500*time.Millisecond, func() { c.SetOnlineCores(1) })
	s.Run()
	// 0.5 s parallel (half done each) + remaining 2*756e6 cycles shared on
	// one core = 1 more second.
	want := 1500 * time.Millisecond
	if diff := (doneAt - want).Abs(); diff > 10*time.Millisecond {
		t.Fatalf("hotplug completion at %v, want %v", doneAt, want)
	}
	if c.OnlineCores() != 1 {
		t.Fatalf("online = %d", c.OnlineCores())
	}
}

func TestHotplugClamps(t *testing.T) {
	s := sim.New()
	c := New(s, singleCluster(Performance))
	c.SetOnlineCores(0)
	if c.OnlineCores() != 1 {
		t.Fatal("min one core")
	}
	c.SetOnlineCores(99)
	if c.OnlineCores() != 4 {
		t.Fatal("clamp to total")
	}
}

func TestFIFOWithinThread(t *testing.T) {
	s := sim.New()
	c := New(s, singleCluster(Performance))
	th := c.NewThread("main", true)
	var order []string
	th.Exec("a", 1e6, func() { order = append(order, "a") })
	th.Exec("b", 1e6, func() { order = append(order, "b") })
	th.Exec("c", 1e6, func() { order = append(order, "c"); c.Stop() })
	s.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
	if !th.Idle() || th.QueueLen() != 0 {
		t.Fatal("thread should be idle")
	}
}

func TestZeroCycleTask(t *testing.T) {
	s := sim.New()
	c := New(s, singleCluster(Performance))
	th := c.NewThread("main", true)
	fired := false
	th.Exec("noop", 0, func() { fired = true; c.Stop() })
	s.Run()
	if !fired {
		t.Fatal("zero-cycle task never completed")
	}
	if s.Now() != 0 {
		t.Fatalf("zero-cycle task advanced time to %v", s.Now())
	}
}

func TestNegativeCyclesPanics(t *testing.T) {
	s := sim.New()
	c := New(s, singleCluster(Performance))
	th := c.NewThread("main", true)
	defer func() {
		if recover() == nil {
			t.Error("negative cycles did not panic")
		}
	}()
	th.Exec("bad", -1, nil)
}

// TestNonFiniteCyclesPanics: Exec refuses a cost that is not finite with a
// cpu: panic, instead of scheduling a completion at an overflowed instant.
func TestNonFiniteCyclesPanics(t *testing.T) {
	for _, cycles := range []float64{math.Inf(1), math.NaN()} {
		s := sim.New()
		c := New(s, singleCluster(Performance))
		th := c.NewThread("main", true)
		var msg any
		s.At(time.Millisecond, func() {
			defer func() { msg = recover() }()
			th.Exec("bad", cycles, nil)
		})
		s.Run()
		if str, ok := msg.(string); !ok || !strings.HasPrefix(str, "cpu: ") {
			t.Errorf("Exec(%v cycles) panicked with %v, want a cpu: message", cycles, msg)
		}
	}
}

// TestTooManyCoresPanics: New refuses a CPU with more cores than the
// planner's per-core masks and power memo cover.
func TestTooManyCoresPanics(t *testing.T) {
	cfg := bigLittle(Performance)
	cfg.Little.Cores = maxCores - cfg.Big.Cores + 1
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "cpu: ") {
			t.Errorf("New with %d cores panicked with %q, want a cpu: message",
				cfg.Big.Cores+cfg.Little.Cores, msg)
		}
	}()
	New(sim.New(), cfg)
}

// TestSaturatedDurationStalls: work that would not finish within
// representable time stalls its thread, as a thread with no rate does,
// rather than arming a completion past the end of time; other threads are
// unaffected.
func TestSaturatedDurationStalls(t *testing.T) {
	s := sim.New()
	c := New(s, singleCluster(Performance))
	huge := c.NewThread("huge", true)
	other := c.NewThread("other", false)
	var doneAt time.Duration
	s.At(time.Millisecond, func() {
		huge.Exec("forever", 1e300, func() { t.Error("saturated task completed") })
		other.Exec("work", 1512e6, func() { doneAt = s.Now() })
	})
	s.Run()
	if want := time.Millisecond + time.Second; doneAt != want {
		t.Errorf("other thread done at %v, want %v", doneAt, want)
	}
	armed := huge.completion != nil && huge.completion.Queued()
	if huge.QueueLen() != 1 || armed {
		t.Errorf("saturated thread: %d queued, completion armed %v; want 1 queued, disarmed",
			huge.QueueLen(), armed)
	}
}

func TestOndemandRampsUpUnderLoad(t *testing.T) {
	s := sim.New()
	c := New(s, singleCluster(Ondemand))
	if c.clusters[0].freq != units.MHz(384) {
		t.Fatalf("ondemand should start at fmin, got %v", c.clusters[0].freq)
	}
	th := c.NewThread("main", true)
	var doneAt time.Duration
	th.Exec("work", 3e9, func() { doneAt = s.Now(); c.Stop() })
	s.Run()
	// After the first 100 ms sample the governor jumps to fmax, so the task
	// should take barely longer than the pure-fmax 1.98 s.
	atMax := units.DurationFor(3e9, units.MHz(1512))
	if doneAt < atMax {
		t.Fatalf("faster than physics: %v < %v", doneAt, atMax)
	}
	if doneAt > atMax+400*time.Millisecond {
		t.Fatalf("ondemand never ramped: took %v (fmax time %v)", doneAt, atMax)
	}
}

func TestOndemandIdlesBackDown(t *testing.T) {
	s := sim.New()
	c := New(s, singleCluster(Ondemand))
	th := c.NewThread("main", true)
	th.Exec("work", 1e9, nil)
	s.RunUntil(5 * time.Second)
	if c.clusters[0].freq != units.MHz(384) {
		t.Fatalf("idle ondemand freq = %v, want fmin", c.clusters[0].freq)
	}
	c.Stop()
}

func TestInteractiveRampsFasterThanOndemand(t *testing.T) {
	finish := func(gov GovernorKind) time.Duration {
		s := sim.New()
		c := New(s, singleCluster(gov))
		th := c.NewThread("main", true)
		var doneAt time.Duration
		th.Exec("work", 1e9, func() { doneAt = s.Now(); c.Stop() })
		s.Run()
		return doneAt
	}
	in, od := finish(Interactive), finish(Ondemand)
	if in >= od {
		t.Fatalf("interactive (%v) should beat ondemand (%v) on a burst", in, od)
	}
}

func TestGovernorFreqWithinBounds(t *testing.T) {
	for _, gov := range Governors() {
		s := sim.New()
		c := New(s, singleCluster(gov))
		th := c.NewThread("main", true)
		for i := 0; i < 5; i++ {
			th.Exec("w", 2e8, nil)
		}
		for i := 0; i < 50; i++ {
			s.RunUntil(time.Duration(i+1) * 40 * time.Millisecond)
			f := c.clusters[0].freq
			if f < units.MHz(384) || f > units.MHz(1512) {
				t.Fatalf("%s freq %v out of bounds", gov, f)
			}
		}
		c.Stop()
	}
}

func TestBigLittleForegroundPlacement(t *testing.T) {
	run := func(fgOnBig bool) time.Duration {
		s := sim.New()
		cfg := Config{
			Big:             device.Cluster{Cores: 4, FMin: units.MHz(400), FMax: units.MHz(2100), IPC: 1.55},
			Little:          &device.Cluster{Cores: 4, FMin: units.MHz(400), FMax: units.MHz(1500), IPC: 0.95},
			ForegroundOnBig: fgOnBig,
			Governor:        Performance,
		}
		c := New(s, cfg)
		th := c.NewThread("main", true)
		var doneAt time.Duration
		th.Exec("work", 3e9, func() { doneAt = s.Now(); c.Stop() })
		s.Run()
		return doneAt
	}
	onBig, onLittle := run(true), run(false)
	if onBig >= onLittle {
		t.Fatalf("foreground-on-big (%v) should beat on-little (%v)", onBig, onLittle)
	}
	// Rate check: big = 2100*1.55, little = 1500*0.95 -> ratio ≈ 2.28.
	ratio := float64(onLittle) / float64(onBig)
	if math.Abs(ratio-2100*1.55/(1500*0.95)) > 0.05 {
		t.Fatalf("cluster speed ratio = %v", ratio)
	}
}

func TestCoreBusyAccounting(t *testing.T) {
	s := sim.New()
	c := New(s, singleCluster(Performance))
	th := c.NewThread("main", true)
	th.Exec("work", 1512e6, func() { c.Stop() }) // 1 s on one core
	s.Run()
	busy := c.CoreBusy()
	var total time.Duration
	onlyOne := 0
	for _, b := range busy {
		total += b
		if b > 0 {
			onlyOne++
		}
	}
	if diff := (total - time.Second).Abs(); diff > time.Millisecond {
		t.Fatalf("total busy = %v, want 1s", total)
	}
	if onlyOne != 1 {
		t.Fatalf("a single thread used %d cores", onlyOne)
	}
}

func TestEnergyAccountingHigherAtHighClock(t *testing.T) {
	run := func(mhz float64) float64 {
		s := sim.New()
		m := energy.NewMeter(s.Now)
		cfg := singleCluster(Userspace)
		cfg.UserspaceFreq = units.MHz(mhz)
		cfg.Obs.Meter = m
		c := New(s, cfg)
		th := c.NewThread("main", true)
		th.Exec("work", 1e9, func() { c.Stop() })
		s.Run()
		return m.Energy("cpu") / s.Now().Seconds() // average watts
	}
	low, high := run(384), run(1512)
	if high <= low {
		t.Fatalf("average power should rise with clock: %v vs %v", low, high)
	}
	if high/low < 3 {
		t.Fatalf("f·V² scaling too weak: %v/%v", high, low)
	}
}

// Property: under the performance governor, N equal independent tasks on a
// 4-core CPU finish in ceil(N/4)-proportional time bounded between the
// perfectly parallel and fully serial extremes.
func TestParallelSpeedupProperty(t *testing.T) {
	f := func(n uint8) bool {
		nt := int(n%12) + 1
		s := sim.New()
		c := New(s, singleCluster(Performance))
		var last time.Duration
		doneCount := 0
		for i := 0; i < nt; i++ {
			th := c.NewThread("w", false)
			th.Exec("x", 1512e6, func() {
				doneCount++
				last = s.Now()
				if doneCount == nt {
					c.Stop()
				}
			})
		}
		s.Run()
		perCore := time.Second
		// Work conservation: total work is nt core-seconds on 4 cores, so the
		// makespan is at least nt/4 seconds and at most nt seconds.
		lo := time.Duration(float64(perCore) * float64(nt) / 4 * 0.999)
		hi := time.Duration(float64(perCore) * float64(nt))
		return last >= lo && last <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceFillsIdleCores(t *testing.T) {
	s := sim.New()
	c := New(s, singleCluster(Performance))
	c.SetOnlineCores(2)
	// Three equal threads on two cores: total 3 core-seconds over 2 cores
	// must take exactly 1.5 s with a work-conserving scheduler.
	done := 0
	var last time.Duration
	for i := 0; i < 3; i++ {
		th := c.NewThread("w", false)
		th.Exec("x", 1512e6, func() {
			done++
			last = s.Now()
			if done == 3 {
				c.Stop()
			}
		})
	}
	s.Run()
	if last < 1490*time.Millisecond || last > 1600*time.Millisecond {
		t.Fatalf("3 tasks on 2 cores took %v, want ~1.5s", last)
	}
}

func TestSwitchOverheadSlowsSharedCore(t *testing.T) {
	run := func(overhead float64) time.Duration {
		s := sim.New()
		cfg := singleCluster(Performance)
		cfg.SwitchOverhead = overhead
		c := New(s, cfg)
		c.SetOnlineCores(1)
		done := 0
		var last time.Duration
		for i := 0; i < 4; i++ {
			th := c.NewThread("w", false)
			th.Exec("x", 1512e6, func() {
				done++
				last = s.Now()
				if done == 4 {
					c.Stop()
				}
			})
		}
		s.Run()
		return last
	}
	ideal := run(NoSwitchOverhead)
	real := run(0) // default overhead
	if real <= ideal {
		t.Fatalf("multiplexing overhead missing: %v vs %v", real, ideal)
	}
	// 4 threads on one core: capacity factor 1/(1+3·overhead), so the
	// makespan stretches by 1+3·overhead.
	ratio := float64(real) / float64(ideal)
	want := 1 + 3*DefaultSwitchOverhead
	if math.Abs(ratio-want) > 1e-6 {
		t.Fatalf("overhead ratio = %.9f, want %.9f", ratio, want)
	}
}

func TestSwitchOverheadNotAppliedToLoneThread(t *testing.T) {
	s := sim.New()
	cfg := singleCluster(Performance)
	cfg.SwitchOverhead = 0.5
	c := New(s, cfg)
	th := c.NewThread("solo", true)
	var doneAt time.Duration
	th.Exec("x", 1512e6, func() { doneAt = s.Now(); c.Stop() })
	s.Run()
	if diff := (doneAt - time.Second).Abs(); diff > time.Millisecond {
		t.Fatalf("lone thread paid switch overhead: %v", doneAt)
	}
}

func TestThreadWeights(t *testing.T) {
	s := sim.New()
	cfg := singleCluster(Performance)
	c := New(s, cfg)
	c.SetOnlineCores(1)
	heavy := c.NewThread("rt", true)
	heavy.SetWeight(3)
	light := c.NewThread("bg", false)
	var heavyAt, lightAt time.Duration
	// Equal work: the weight-3 thread gets 3/4 of the core, finishing at
	// 1512e6/(1512e6*0.75)... both threads run concurrently, heavy at 3x rate.
	heavy.Exec("h", 1512e6, func() { heavyAt = s.Now() })
	light.Exec("l", 1512e6, func() {
		lightAt = s.Now()
		c.Stop()
	})
	s.Run()
	if heavyAt >= lightAt {
		t.Fatalf("weighted thread (%v) should finish before light (%v)", heavyAt, lightAt)
	}
	// Heavy gets 3/4 rate => done at 4/3 s.
	want := time.Second * 4 / 3
	if diff := (heavyAt - want).Abs(); diff > 10*time.Millisecond {
		t.Fatalf("heavy finished at %v, want ~%v", heavyAt, want)
	}
}

func TestBadWeightPanics(t *testing.T) {
	s := sim.New()
	c := New(s, singleCluster(Performance))
	th := c.NewThread("x", true)
	defer func() {
		if recover() == nil {
			t.Error("non-positive weight did not panic")
		}
	}()
	th.SetWeight(0)
}
