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

// denseQuantile is the two-sided layout the bucket list replaced: a
// zero tally, and per sign an underflow tally, sketchBins geometric bins
// and an overflow tally, walked in ascending value order. HistSketch must
// give its quantiles bit for bit.
func denseQuantile(xs []float64, q float64) float64 {
	type side struct {
		under, over int64
		bins        [sketchBins]int64
	}
	var pos, neg side
	var zero, nan int64
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range xs {
		switch {
		case math.IsNaN(v):
			nan++
			continue
		case v == 0:
			zero++
		default:
			s, m := &pos, v
			if v < 0 {
				s, m = &neg, -v
			}
			b := math.Float64bits(m)
			switch e := int(b>>52&0x7ff) - 1023; {
			case e < sketchMinExp:
				s.under++
			case e >= sketchMaxExp:
				s.over++
			default:
				s.bins[(e-sketchMinExp)*sketchSubs+int(b>>(52-sketchSubBits))&(sketchSubs-1)]++
			}
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	total := int64(len(xs)) - nan
	rank := q * float64(total-1)
	cum, out, found := 0.0, 0.0, false
	walk := func(cnt int64, l, h float64) {
		if found || cnt == 0 {
			return
		}
		if rank < cum+float64(cnt) || cum+float64(cnt) >= float64(total) {
			frac := math.Max(0, math.Min(1, (rank-cum)/float64(cnt)))
			out, found = l+frac*(h-l), true
			return
		}
		cum += float64(cnt)
	}
	walk(neg.over, lo, -math.Ldexp(1, sketchMaxExp))
	for i := sketchBins - 1; i >= 0; i-- {
		l, h := bucketBounds(i)
		walk(neg.bins[i], -h, -l)
	}
	walk(neg.under, -math.Ldexp(1, sketchMinExp), 0)
	walk(zero, 0, 0)
	walk(pos.under, 0, math.Ldexp(1, sketchMinExp))
	for i := 0; i < sketchBins; i++ {
		l, h := bucketBounds(i)
		walk(pos.bins[i], l, h)
	}
	walk(pos.over, math.Ldexp(1, sketchMaxExp), hi)
	return math.Max(lo, math.Min(hi, out))
}

// TestHistSketchQuantileMatchesDenseLayout pins the bucket list to the
// layout it replaced, over both signs, zeros, underflow and overflow.
func TestHistSketchQuantileMatchesDenseLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		xs := randDist(rng, 50+rng.Intn(500))
		for i := rng.Intn(4); i > 0; i-- {
			xs = append(xs, 0, math.Ldexp(1, 40+i), -math.Ldexp(1, 35), math.Ldexp(1, -40), -math.Ldexp(1, -36-i))
		}
		var h HistSketch
		for _, x := range xs {
			h.Observe(x)
		}
		// Decoding refuses unsorted or duplicated keys.
		if err := new(HistSketch).UnmarshalBinary([]byte(sketchBytes(t, &h))); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			if got, want := h.Quantile(q), denseQuantile(xs, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d q=%g: bucket list %v, dense layout %v", trial, q, got, want)
			}
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
// 1-shard sketch and any N-shard merge of the same observations encode to
// the same bytes, for several shard counts and merge groupings.
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

// sketchBytes returns the sketch's canonical encoding.
func sketchBytes(t *testing.T, h *HistSketch) string {
	t.Helper()
	b, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHistSketchFixedBudget pins what a sketch costs: a fixed header plus a
// bounded number of bytes per non-empty bucket, in memory and encoded, and
// no allocation once a value's bucket exists — a million observations cost
// what their buckets cost.
func TestHistSketchFixedBudget(t *testing.T) {
	if size := unsafe.Sizeof(HistSketch{}); size > 1<<10 {
		t.Fatalf("empty HistSketch is %d bytes, want <= 1 KiB", size)
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
	buckets := len(h.buckets)
	if buckets < 20 {
		t.Fatalf("only %d buckets; the bound below needs a spread input", buckets)
	}
	if mem := cap(h.buckets) * int(unsafe.Sizeof(sketchBucket{})); mem > 32*buckets {
		t.Fatalf("%d buckets hold %d bytes, want <= 32 per bucket", buckets, mem)
	}
	if enc := len(sketchBytes(t, h)); enc != histSketchHeaderSize+12*buckets {
		t.Fatalf("encoding is %d bytes for %d buckets, want %d + 12 per bucket",
			enc, buckets, histSketchHeaderSize)
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

// BenchmarkHistSketchObserve times one observation into warm buckets, for
// values drawn at random (the search path) and for a queue-depth-like walk
// of ±1 steps (mostly the last bucket or a neighbour).
func BenchmarkHistSketchObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	walk, d := make([]float64, 4096), 50.0
	for i := range walk {
		d = max(0, d+float64(rng.Intn(3)-1))
		walk[i] = d
	}
	b.Run("random", func(b *testing.B) { benchObserve(b, randDist(rng, 4096)) })
	b.Run("walk", func(b *testing.B) { benchObserve(b, walk) })
}

func benchObserve(b *testing.B, xs []float64) {
	var h HistSketch
	for _, x := range xs {
		h.Observe(x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(xs[i&4095])
	}
}

var quantileSink float64

// BenchmarkHistSketchQuantile times one quantile read.
func BenchmarkHistSketchQuantile(b *testing.B) {
	var h HistSketch
	for _, x := range randDist(rand.New(rand.NewSource(3)), 4096) {
		h.Observe(x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantileSink = h.Quantile(0.9)
	}
}
