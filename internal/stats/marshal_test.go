package stats

import (
	"bytes"
	"math"
	"testing"
)

// TestExactSumCanonicalBytes: the encoding must depend only on the observed
// multiset, never on grouping — the property checkpoint byte-comparison
// relies on.
func TestExactSumCanonicalBytes(t *testing.T) {
	rng := NewRNG(7)
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = rng.Float64()*2e6 - 1e5
	}
	var one ExactSum
	for _, v := range vals {
		one.Add(v)
	}
	// Same values in 7 shards merged in reverse order.
	shards := make([]ExactSum, 7)
	for i, v := range vals {
		shards[i%7].Add(v)
	}
	var merged ExactSum
	for i := len(shards) - 1; i >= 0; i-- {
		merged.Merge(&shards[i])
	}
	a, _ := one.MarshalBinary()
	b, _ := merged.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("ExactSum bytes differ across shard groupings")
	}
	// Marshal must not mutate the receiver.
	if got := one.Value(); got != merged.Value() {
		t.Fatalf("Value diverged after marshal: %v vs %v", got, merged.Value())
	}
}

func TestExactSumRoundTrip(t *testing.T) {
	var s ExactSum
	for _, v := range []float64{1.5, -2.25, 1e300, -1e-300, math.Inf(1)} {
		s.Add(v)
	}
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got ExactSum
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if g, w := got.Value(), s.Value(); g != w {
		t.Fatalf("round-trip Value = %v, want %v", g, w)
	}
	// A decoded sum must keep accumulating and merging exactly.
	got.Add(3.75)
	s.Add(3.75)
	gb, _ := got.MarshalBinary()
	sb, _ := s.MarshalBinary()
	if !bytes.Equal(gb, sb) {
		t.Fatal("decoded sum diverged after further Adds")
	}
	if err := got.UnmarshalBinary(b[:10]); err == nil {
		t.Fatal("expected error on truncated encoding")
	}
	b[0] = 'z'
	if err := got.UnmarshalBinary(b); err == nil {
		t.Fatal("expected error on bad magic")
	}
}

func TestHistSketchCanonicalBytes(t *testing.T) {
	rng := NewRNG(11)
	vals := make([]float64, 800)
	for i := range vals {
		vals[i] = norm(rng, 0, 1500)
	}
	var one HistSketch
	for _, v := range vals {
		one.Observe(v)
	}
	for _, shards := range []int{2, 5, 16} {
		parts := make([]HistSketch, shards)
		for i, v := range vals {
			parts[i%shards].Observe(v)
		}
		var merged HistSketch
		for i := range parts {
			merged.Merge(&parts[i])
		}
		a, _ := one.MarshalBinary()
		b, _ := merged.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatalf("HistSketch bytes differ for %d shards", shards)
		}
	}
}

func TestHistSketchRoundTrip(t *testing.T) {
	var h HistSketch
	for _, v := range []float64{0, 12.5, -3.25, 1e9, 4e-12, math.NaN()} {
		h.Observe(v)
	}
	b, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got HistSketch
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	// Sum is NaN here (a NaN was observed), so compare bit patterns.
	if got.N() != h.N() || got.Min() != h.Min() || got.Max() != h.Max() ||
		math.Float64bits(got.Sum()) != math.Float64bits(h.Sum()) ||
		got.Quantile(0.5) != h.Quantile(0.5) {
		t.Fatal("round-trip changed sketch queries")
	}
	// Decoded sketches must merge on exactly like live ones.
	var extra HistSketch
	extra.Observe(99)
	got.Merge(&extra)
	h.Merge(&extra)
	gb, _ := got.MarshalBinary()
	hb, _ := h.MarshalBinary()
	if !bytes.Equal(gb, hb) {
		t.Fatal("decoded sketch diverged after merge")
	}
	if err := got.UnmarshalBinary(b[:100]); err == nil {
		t.Fatal("expected error on truncated encoding")
	}
}

func TestHistSketchEmptyRoundTrip(t *testing.T) {
	var h HistSketch
	b, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got HistSketch
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got.N() != 0 {
		t.Fatalf("empty round-trip N = %d", got.N())
	}
}

// norm returns a normally distributed value with the given mean and
// standard deviation (Box–Muller).
func norm(r *RNG, mean, std float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + std*z
}
