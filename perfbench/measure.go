package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tally collects the outcome of a workload's timed window: operations
// attempted and failed, and the reference time (see refClock) of every timed
// unit they contained: a suite pass (figures), the shards of a fleet
// (fleet), a cold request (serve).
type tally struct {
	attempted, failed int
	units             []float64 // reference milliseconds
	// plain and traced split the units by whether their operation was
	// traced; a traced run alternates the two so their difference is the
	// tracing overhead.
	plain, traced      []float64
	problems           []string
	allocBytes, gcFrac float64 // Go runtime cost over the window
}

// add records one operation and the reference times of its timed units. A
// non-nil err is a failed output check or request; only successful
// operations contribute samples.
func (t *tally) add(units []float64, traced bool, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.problem(err.Error())
		return
	}
	t.units = append(t.units, units...)
	if traced {
		t.traced = append(t.traced, units...)
	} else {
		t.plain = append(t.plain, units...)
	}
}

// problem notes a failed check; the first few are kept for the report.
func (t *tally) problem(msg string) {
	if len(t.problems) < 5 {
		t.problems = append(t.problems, msg)
	}
}

// check records a whole-run check (one not tied to an operation).
func (t *tally) check(err error) {
	if err == nil {
		return
	}
	t.failed++
	t.attempted++
	t.problem(err.Error())
}

// quantile is the linearly interpolated q-quantile of vs (0 when empty).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads a process's peak resident set (VmHWM) from procfs; pid
// "self" is this process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// goStats is a snapshot of this process's cumulative Go runtime cost.
type goStats struct{ allocBytes, gcCPU, totalCPU float64 }

var goStatNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{allocBytes: v(0), gcCPU: v(1), totalCPU: v(2)}
}

// goSince records the runtime cost between before and now into t.
func (t *tally) goSince(before goStats) {
	after := readGoStats()
	t.allocBytes = after.allocBytes - before.allocBytes
	if d := after.totalCPU - before.totalCPU; d > 0 {
		t.gcFrac = (after.gcCPU - before.gcCPU) / d
	}
}

// refClock measures time in reference milliseconds: wall time scaled by how
// fast the host ran a fixed floating-point kernel around it.
//
// On the 2-vCPU VM this benchmark was built on, the same single-threaded
// code ran up to 1.8 times slower in phases lasting from about a second to
// over a minute, with its CPU time rising with its wall time: the other
// hardware thread of the core was busy. In one process over 99 figures
// passes, pass wall time spread 41% (quartile distance over median). Of the
// kernels timed between the passes' cells (an integer xorshift chain, an
// unpredictable-branch loop, pointer chases in L2, LLC and DRAM, sha256, a
// heap-based event queue, math.Exp with math.Sqrt), only the last slowed by
// the same factor as the passes; pass time scaled by it segment by segment
// spread 6.6%. The kernel is the benchmark's own code, so a change to the
// simulator moves reference time exactly as it moves wall time.
type refClock struct {
	since  time.Time // end of the last kernel measurement
	kernel float64   // that measurement, ms
	total  float64   // reference ms over all laps
}

// kernelRefMS is the kernel's time on an idle core of the 2.1 GHz Xeon
// VM the benchmark was built on, which makes one reference millisecond one
// millisecond there.
const kernelRefMS = 0.33

func startClock() *refClock {
	return &refClock{kernel: kernelMS(), since: time.Now()}
}

// lap ends the current segment and starts the next: it times the kernel
// again and returns the segment's wall time scaled by kernelRefMS over the
// mean kernel time at its two ends. The kernel's own time is in no segment.
// A nil clock does nothing.
func (c *refClock) lap() float64 {
	if c == nil {
		return 0
	}
	wall := ms(time.Since(c.since))
	k := kernelMS()
	seg := wall * kernelRefMS / ((c.kernel + k) / 2)
	c.kernel, c.since = k, time.Now()
	c.total += seg
	return seg
}

var kernelSink float64

// kernelMS is the fastest of three runs of the kernel, so a preemption in
// one run does not count. It allocates nothing, so it never waits for GC.
func kernelMS() float64 {
	best := math.Inf(1)
	for r := 0; r < 3; r++ {
		start := time.Now()
		s := 0.0
		for i := 1; i <= 40000; i++ {
			s += math.Exp(-float64(i)*1e-6) * math.Sqrt(float64(i))
		}
		kernelSink += s
		best = min(best, ms(time.Since(start)))
	}
	return best
}
