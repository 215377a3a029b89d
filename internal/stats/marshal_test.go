package stats

import (
	"bytes"
	"encoding/binary"
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

// TestHistSketchRejectsNonCanonical: every way an hs2 blob can differ from
// what MarshalBinary writes is refused, and so is the old hs1 layout.
func TestHistSketchRejectsNonCanonical(t *testing.T) {
	var h HistSketch
	for _, v := range []float64{-2, 0, 3, 3, 40, math.NaN()} {
		h.Observe(v)
	}
	good, _ := h.MarshalBinary()
	var got HistSketch
	if err := got.UnmarshalBinary(good); err != nil {
		t.Fatalf("canonical bytes refused: %v", err)
	}
	// Buckets: keys -k(2), 0, k(3), k(40) with counts 1, 1, 2, 1.
	bucket := func(b []byte, i int) []byte { return b[histSketchHeaderSize+i*histSketchBucketSize:] }
	setKey := func(b []byte, i int, k int32) { binary.LittleEndian.PutUint32(bucket(b, i), uint32(k)) }
	setCount := func(b []byte, i int, c int64) { binary.LittleEndian.PutUint64(bucket(b, i)[4:], uint64(c)) }
	key := func(i int) int32 { return int32(binary.LittleEndian.Uint32(bucket(good, i))) }
	for _, c := range []struct {
		name string
		edit func([]byte) []byte
	}{
		{"hs1 magic", func(b []byte) []byte { b[2] = '1'; return b }},
		{"torn bucket", func(b []byte) []byte { return b[:len(b)-1] }},
		{"unsorted keys", func(b []byte) []byte { setKey(b, 2, key(3)); setKey(b, 3, key(2)); return b }},
		{"duplicate key", func(b []byte) []byte { setKey(b, 1, key(0)); return b }},
		{"key out of range", func(b []byte) []byte { setKey(b, 3, sketchOverKey+1); return b }},
		{"zero count", func(b []byte) []byte { setCount(b, 0, 0); return b }},
		{"negative count", func(b []byte) []byte { setCount(b, 0, -1); return b }},
		{"counts short of n", func(b []byte) []byte { return b[:len(b)-histSketchBucketSize] }},
		{"counts over n", func(b []byte) []byte { setCount(b, 2, 3); return b }},
		{"NaN count over n", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[12:], 7); return b }},
		{"unnormalized sum", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[4+4*8+4:], 1<<32); return b }},
	} {
		bad := c.edit(append([]byte(nil), good...))
		if err := got.UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// FuzzHistSketchUnmarshal: decoding never panics, and any input it accepts
// re-encodes to exactly its own bytes (the encoding is canonical).
func FuzzHistSketchUnmarshal(f *testing.F) {
	for _, xs := range [][]float64{
		nil,
		{0},
		{1.5, -3, math.NaN(), math.Inf(1), math.Ldexp(1, -40), -math.Ldexp(1, 40)},
		{12, 12, 12, 250, 7e6},
	} {
		var h HistSketch
		for _, x := range xs {
			h.Observe(x)
		}
		b, _ := h.MarshalBinary()
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h HistSketch
		if h.UnmarshalBinary(data) != nil {
			return
		}
		b, err := h.MarshalBinary()
		if err != nil || !bytes.Equal(b, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes (%v)", len(data), len(b), err)
		}
		h.Quantile(0.5)
		h.Observe(1)
	})
}
