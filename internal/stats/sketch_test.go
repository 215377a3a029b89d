package stats

import (
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// randDist draws n samples from a randomly parameterized distribution
// family — the "300+ random distributions" fixture the sketch's accuracy
// claim is pinned against.
func randDist(rng *rand.Rand, n int) []float64 {
	xs, _ := randDistKind(rng, n)
	return xs
}

func randDistKind(rng *rand.Rand, n int) ([]float64, int) {
	kind := rng.Intn(6)
	scale := math.Ldexp(1, rng.Intn(40)-20) // 2^-20 .. 2^19
	shift := (rng.Float64() - 0.5) * 10 * scale
	xs := make([]float64, n)
	for i := range xs {
		var v float64
		switch kind {
		case 0: // uniform
			v = rng.Float64()
		case 1: // normal
			v = rng.NormFloat64()
		case 2: // exponential
			v = rng.ExpFloat64()
		case 3: // lognormal
			v = math.Exp(rng.NormFloat64())
		case 4: // bimodal
			v = rng.NormFloat64()
			if rng.Intn(2) == 0 {
				v += 8
			}
		default: // heavy-tailed (Pareto-ish)
			v = math.Pow(rng.Float64()+1e-9, -0.7)
		}
		xs[i] = v*scale + shift
	}
	return xs, kind
}

// exactQuantile is the order-statistic quantile with linear interpolation
// (the same convention Sample.Percentile uses).
func exactQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func TestHistSketchQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 320; trial++ {
		xs := randDist(rng, 200+rng.Intn(1800))
		var h HistSketch
		for _, x := range xs {
			h.Observe(x)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0, 0.05, 0.5, 0.9, 0.99, 1} {
			got := h.Quantile(q)
			want := exactQuantile(sorted, q)
			// Interpolated exact quantiles sit between two order
			// statistics that may straddle a bucket edge, so allow the
			// bucket relative error around either neighbor.
			loStat := sorted[int(math.Floor(q*float64(len(sorted)-1)))]
			hiStat := sorted[int(math.Ceil(q*float64(len(sorted)-1)))]
			tol := 0.0651*math.Max(math.Abs(loStat), math.Abs(hiStat)) +
				2*math.Ldexp(1, sketchMinExp)
			if got < math.Min(loStat, want)-tol || got > math.Max(hiStat, want)+tol {
				t.Fatalf("trial %d q=%g: sketch %g, exact %g (stats %g..%g, tol %g)",
					trial, q, got, want, loStat, hiStat, tol)
			}
		}
		if got, want := h.Mean(), mean(xs); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("trial %d: sketch mean %g, exact %g", trial, got, want)
		}
		if h.Min() != sorted[0] || h.Max() != sorted[len(sorted)-1] {
			t.Fatalf("trial %d: min/max %g/%g, want %g/%g",
				trial, h.Min(), h.Max(), sorted[0], sorted[len(sorted)-1])
		}
	}
}

func mean(xs []float64) float64 {
	var s Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Mean()
}

// TestHistSketchMergeByteIdentical is the shard-associativity contract: a
// 1-shard sketch and any N-shard merge of the same observations are equal
// as raw bytes, for several shard counts and merge groupings.
func TestHistSketchMergeByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := randDist(rng, 5000)
	xs = append(xs, 0, 0, math.Ldexp(1, 40), -math.Ldexp(1, 40), math.Ldexp(1, -40))

	var one HistSketch
	for _, x := range xs {
		one.Observe(x)
	}
	oneBytes := sketchBytes(t, &one)

	for _, shards := range []int{2, 3, 7, 100} {
		parts := make([]HistSketch, shards)
		for i, x := range xs {
			parts[i%shards].Observe(x)
		}
		// Fold in index order...
		var fwd HistSketch
		for i := range parts {
			fwd.Merge(&parts[i])
		}
		// ...and in reverse order: the merge must be order-insensitive.
		var rev HistSketch
		for i := shards - 1; i >= 0; i-- {
			rev.Merge(&parts[i])
		}
		if got := sketchBytes(t, &fwd); got != oneBytes {
			t.Fatalf("%d-shard forward merge differs from 1-shard bytes", shards)
		}
		if got := sketchBytes(t, &rev); got != oneBytes {
			t.Fatalf("%d-shard reverse merge differs from 1-shard bytes", shards)
		}
		if fwd.Quantile(0.5) != one.Quantile(0.5) || fwd.Mean() != one.Mean() {
			t.Fatalf("%d-shard derived stats differ", shards)
		}
	}
}

// sketchBytes canonicalizes (normalizes the exact sum's pending carries)
// and returns the raw struct bytes.
func sketchBytes(t *testing.T, h *HistSketch) string {
	t.Helper()
	h.sum.normalize()
	h.sum.adds = 0
	return string(unsafe.Slice((*byte)(unsafe.Pointer(h)), unsafe.Sizeof(*h)))
}

// TestHistSketchFixedBudget pins the O(1) memory claim: the sketch is one
// value of compile-time-constant size and a million observations allocate
// nothing.
func TestHistSketchFixedBudget(t *testing.T) {
	if size := unsafe.Sizeof(HistSketch{}); size > 20<<10 {
		t.Fatalf("HistSketch is %d bytes, want <= 20 KiB", size)
	}
	h := &HistSketch{}
	rng := rand.New(rand.NewSource(3))
	xs := randDist(rng, 1024)
	allocs := testing.AllocsPerRun(1000, func() {
		for _, x := range xs {
			h.Observe(x)
		}
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates (%g allocs per 1024 observations)", allocs)
	}
	if h.N() < 1_000_000 {
		t.Fatalf("expected >= 1M observations, got %d", h.N())
	}
}

func TestExactSumMatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		var s ExactSum
		exact := new(big.Float).SetPrec(2200)
		for i := 0; i < n; i++ {
			// Adversarial exponent spread plus sign flips: exactly the
			// regime where float64 summation loses digits.
			v := math.Ldexp(rng.NormFloat64(), rng.Intn(120)-60)
			if rng.Intn(4) == 0 {
				v = -v
			}
			s.Add(v)
			exact.Add(exact, big.NewFloat(v))
		}
		want, _ := exact.Float64()
		got := s.Value()
		tol := 4 * math.Abs(want) * 0x1p-52
		if math.Abs(got-want) > tol+0x1p-1000 {
			t.Fatalf("trial %d: ExactSum %g, big.Float %g (diff %g)", trial, got, want, got-want)
		}
	}
}

func TestExactSumSpecials(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, math.Inf(1)}, math.Inf(1)},
		{[]float64{math.Inf(-1), -2}, math.Inf(-1)},
		{[]float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
		{[]float64{math.NaN(), 5}, math.NaN()},
		{[]float64{0, math.Copysign(0, -1)}, 0},
		{[]float64{1e300, 1e300, -1e300, -1e300}, 0},
		{[]float64{1e-310, 1e-310}, 2e-310}, // subnormals stay exact
	}
	for i, c := range cases {
		var s ExactSum
		for _, x := range c.xs {
			s.Add(x)
		}
		got := s.Value()
		if math.IsNaN(c.want) != math.IsNaN(got) || (!math.IsNaN(c.want) && got != c.want) {
			t.Errorf("case %d: sum %v = %g, want %g", i, c.xs, got, c.want)
		}
	}
}

func TestExactSumCancellation(t *testing.T) {
	// 1 + 2^-60 - 1 == 2^-60 exactly; a float64 running sum returns 0.
	var s ExactSum
	s.Add(1)
	s.Add(0x1p-60)
	s.Add(-1)
	if got := s.Value(); got != 0x1p-60 {
		t.Fatalf("cancellation: got %g, want %g", got, 0x1p-60)
	}
}
