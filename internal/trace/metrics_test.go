package trace

import (
	"math/rand"
	"strings"
	"testing"
)

func TestParseHistMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want HistMode
	}{{"", HistScalar}, {"scalar", HistScalar}, {"bounded", HistBounded}} {
		got, err := ParseHistMode(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseHistMode(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if c.in != "" && got.String() != c.in {
			t.Fatalf("HistMode round-trip: %v.String() = %q", got, got.String())
		}
	}
	for _, bad := range []string{"bogus", "full"} {
		_, err := ParseHistMode(bad)
		if err == nil || !strings.Contains(err.Error(), "scalar|bounded") {
			t.Fatalf("ParseHistMode(%q) = %v, want an error naming scalar|bounded", bad, err)
		}
	}
}

// TestScalarTableUnchanged pins the golden-compat contract: a HistScalar
// registry renders exactly the historical six columns with no quantile
// columns, so every existing golden output stays byte-identical.
func TestScalarTableUnchanged(t *testing.T) {
	m := NewMetrics()
	m.Counter("a.count").Add(3)
	h := m.Histogram("b.ms")
	h.Observe(2)
	h.Observe(4)
	tbl := m.Table()
	if strings.Contains(tbl, "p50") || strings.Contains(tbl, "p99") {
		t.Fatalf("scalar table grew quantile columns:\n%s", tbl)
	}
	if !strings.HasPrefix(tbl, "== metrics ==\n") {
		t.Fatalf("scalar table header changed:\n%s", tbl)
	}
}

func TestBoundedTableHasQuantiles(t *testing.T) {
	m := NewMetricsMode(HistBounded)
	h := m.Histogram("lat.ms")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	m.Counter("n").Add(1)
	tbl := m.Table()
	if !strings.Contains(tbl, "p50") || !strings.Contains(tbl, "p99") {
		t.Fatalf("bounded table missing quantile columns:\n%s", tbl)
	}
	if v, ok := h.Quantile(0.5); !ok || v < 40 || v > 60 {
		t.Fatalf("bounded p50 = %g, %v; want ~50", v, ok)
	}
	if note := m.TableTitled("merged 4 trials in trial order"); !strings.Contains(note, "== metrics (merged 4 trials in trial order) ==") {
		t.Fatalf("TableTitled note missing:\n%s", note)
	}
}

// TestBoundedMergeByteIdentical is the registry-level shard contract: the
// rendered table of an N-shard bounded-mode merge equals the 1-shard table
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
	one := NewMetricsMode(HistBounded)
	observe(one, xs)
	want := one.Table()

	for _, shards := range []int{2, 5, 16} {
		parts := make([]*Metrics, shards)
		for i := range parts {
			parts[i] = NewMetricsMode(HistBounded)
		}
		for i, x := range xs {
			observe(parts[i%shards], []float64{x})
		}
		fwd := NewMetricsMode(HistBounded)
		for i := range parts {
			fwd.Merge(parts[i])
		}
		rev := NewMetricsMode(HistBounded)
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

// TestCrossModeMergeDropsQuantiles: merging histograms whose backings differ
// keeps the scalar fields but reports ok=false from Quantile instead of a
// silently partial estimate.
func TestCrossModeMergeDropsQuantiles(t *testing.T) {
	a := NewMetricsMode(HistBounded)
	a.Histogram("x").Observe(1)
	b := NewMetrics() // scalar
	b.Histogram("x").Observe(3)
	a.Merge(b)
	h := a.Histogram("x")
	if h.Count() != 2 || h.Mean() != 2 {
		t.Fatalf("scalar fields wrong after cross-mode merge: n=%d mean=%g", h.Count(), h.Mean())
	}
	if _, ok := h.Quantile(0.5); ok {
		t.Fatal("cross-mode merge should drop the quantile backing")
	}
	if !strings.Contains(a.Table(), "-") {
		t.Fatalf("dropped backing should render '-':\n%s", a.Table())
	}
}

// TestMergeKeepsEmptyHistograms: a histogram registered but never observed
// still renders as a row, so merging its registry into an empty one must
// register the name too, and must not disturb an observed histogram.
func TestMergeKeepsEmptyHistograms(t *testing.T) {
	for _, mode := range []HistMode{HistScalar, HistBounded} {
		part := NewMetricsMode(mode)
		part.Histogram("empty.us")
		part.Histogram("seen.ms").Observe(3)
		merged := NewMetricsMode(mode)
		merged.Merge(part)
		if got, want := strings.Join(merged.Names(), ","), "empty.us,seen.ms"; got != want {
			t.Fatalf("%v: merged names = %s, want %s", mode, got, want)
		}
		if merged.Table() != part.Table() {
			t.Fatalf("%v: merged table differs from its only part:\n%s\nwant\n%s", mode, merged.Table(), part.Table())
		}
		if h := merged.LookupHistogram("empty.us"); h.Count() != 0 {
			t.Fatalf("%v: empty histogram merged to n=%d", mode, h.Count())
		}
	}
}

// TestLookupNeverCreates: the non-creating lookups used by read-only
// consumers must not grow the registry (a spurious empty row would change
// rendered tables) and must report what Observe recorded.
func TestLookupNeverCreates(t *testing.T) {
	m := NewMetricsMode(HistBounded)
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
		t.Fatal("bounded histogram must expose its sketch")
	}
	if NewMetrics().Histogram("s").Sketch() != nil {
		t.Fatal("scalar histogram must not expose a sketch")
	}
	var nilH *Histogram
	if nilH.Min() != 0 || nilH.Sum() != 0 || nilH.Sketch() != nil {
		t.Fatal("nil histogram accessors must be no-ops")
	}
}
