package trace

import (
	"math/rand"
	"strings"
	"testing"
)

func TestBoundedTableHasQuantiles(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("lat.ms")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	m.Counter("n").Add(1)
	tbl := m.Table()
	if !strings.Contains(tbl, "p50") || !strings.Contains(tbl, "p99") {
		t.Fatalf("table missing quantile columns:\n%s", tbl)
	}
	if v := h.Quantile(0.5); v < 40 || v > 60 {
		t.Fatalf("p50 = %g; want ~50", v)
	}
	if note := m.TableTitled("merged 4 trials in trial order"); !strings.Contains(note, "== metrics (merged 4 trials in trial order) ==") {
		t.Fatalf("TableTitled note missing:\n%s", note)
	}
}

// TestBoundedMergeByteIdentical is the registry-level shard contract: the
// rendered table of an N-shard merge equals the 1-shard table
// byte-for-byte, for any shard count and fold order.
func TestBoundedMergeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 4000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
	}

	observe := func(m *Metrics, xs []float64) {
		h := m.Histogram("lat.ms")
		for _, x := range xs {
			h.Observe(x)
			m.Counter("events").Add(1)
		}
	}
	one := NewMetrics()
	observe(one, xs)
	want := one.Table()

	for _, shards := range []int{2, 5, 16} {
		parts := make([]*Metrics, shards)
		for i := range parts {
			parts[i] = NewMetrics()
		}
		for i, x := range xs {
			observe(parts[i%shards], []float64{x})
		}
		fwd := NewMetrics()
		for i := range parts {
			fwd.Merge(parts[i])
		}
		rev := NewMetrics()
		for i := shards - 1; i >= 0; i-- {
			rev.Merge(parts[i])
		}
		if got := fwd.Table(); got != want {
			t.Fatalf("%d-shard forward merge table differs:\n%s\nwant:\n%s", shards, got, want)
		}
		if got := rev.Table(); got != want {
			t.Fatalf("%d-shard reverse merge table differs from 1-shard", shards)
		}
	}
}

// TestMergeKeepsEmptyHistograms: a histogram registered but never observed
// still renders as a row, so merging its registry into an empty one must
// register the name too, and must not disturb an observed histogram.
func TestMergeKeepsEmptyHistograms(t *testing.T) {
	part := NewMetrics()
	part.Histogram("empty.us")
	part.Histogram("seen.ms").Observe(3)
	merged := NewMetrics()
	merged.Merge(part)
	if got, want := strings.Join(merged.Names(), ","), "empty.us,seen.ms"; got != want {
		t.Fatalf("merged names = %s, want %s", got, want)
	}
	if merged.Table() != part.Table() {
		t.Fatalf("merged table differs from its only part:\n%s\nwant\n%s", merged.Table(), part.Table())
	}
	if h := merged.LookupHistogram("empty.us"); h.Count() != 0 {
		t.Fatalf("empty histogram merged to n=%d", h.Count())
	}
}

// TestLookupNeverCreates: the non-creating lookups used by read-only
// consumers must not grow the registry (a spurious empty row would change
// rendered tables) and must report what Observe recorded.
func TestLookupNeverCreates(t *testing.T) {
	m := NewMetrics()
	if m.LookupCounter("absent") != nil || m.LookupHistogram("absent") != nil {
		t.Fatal("lookup of an absent metric returned a handle")
	}
	if len(m.Names()) != 0 {
		t.Fatalf("lookups created metrics: %v", m.Names())
	}
	m.Counter("c").Add(2)
	m.Histogram("h").Observe(5)
	m.Histogram("h").Observe(1)
	if c := m.LookupCounter("c"); c == nil || c.Value() != 2 {
		t.Fatalf("LookupCounter = %v", c)
	}
	h := m.LookupHistogram("h")
	if h == nil || h.Min() != 1 || h.Max() != 5 || h.Sum() != 6 {
		t.Fatalf("LookupHistogram: min=%g max=%g sum=%g", h.Min(), h.Max(), h.Sum())
	}
	if h.Sketch() == nil {
		t.Fatal("histogram must expose its sketch")
	}
	var nilH *Histogram
	if nilH.Min() != 0 || nilH.Sum() != 0 || nilH.Quantile(0.5) != 0 || nilH.Sketch() != nil {
		t.Fatal("nil histogram accessors must be no-ops")
	}
}
