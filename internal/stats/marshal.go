package stats

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encodings for the exactly-mergeable aggregates. The encodings are
// canonical: MarshalBinary is a pure function of the observed multiset, not
// of the order or grouping the observations arrived in. ExactSum reaches the
// canonical form by carry-normalizing (the docs on normalize pin that the
// canonical limb form depends only on the exact value), and every other
// field is an integer tally or an order-insensitive min/max. Canonical bytes
// are what make fleet checkpoint/resume provable by byte comparison: a
// killed-and-resumed N-shard run serializes its merged aggregates to exactly
// the bytes of an uninterrupted 1-shard run.
//
// The formats are versioned by a 4-byte magic ("xs1\x00", "hs2\x00") and are
// little-endian: ExactSum is fixed-length, HistSketch a fixed header plus one
// record per non-empty bucket. Unmarshal accepts only canonical bytes. They
// are a local persistence format, not a public interchange format — bump
// the magic on any layout change.

const (
	exactSumMagic = "xs1\x00"
	// magic + 68 limbs + nan + posInf + negInf (adds is always 0 after
	// normalization and is not encoded).
	exactSumWireSize = 4 + (exactLimbs+3)*8

	histSketchMagic = "hs2\x00"
	// magic + n/nan + min/max bits + embedded ExactSum; then per non-empty
	// bucket an int32 key and an int64 count.
	histSketchHeaderSize = 4 + 4*8 + exactSumWireSize
	histSketchBucketSize = 4 + 8
)

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func takeU64(b []byte) ([]byte, uint64) {
	return b[8:], binary.LittleEndian.Uint64(b)
}

func takeI64(b []byte) ([]byte, int64) {
	return b[8:], int64(binary.LittleEndian.Uint64(b))
}

// MarshalBinary encodes the sum in canonical form. The receiver is not
// mutated (normalization happens on a copy).
func (s *ExactSum) MarshalBinary() ([]byte, error) {
	n := *s
	n.normalize()
	b := make([]byte, 0, exactSumWireSize)
	return n.appendBinary(b), nil
}

// appendBinary appends the canonical encoding of an already-normalized sum.
func (s *ExactSum) appendBinary(b []byte) []byte {
	b = append(b, exactSumMagic...)
	for _, l := range s.limbs {
		b = appendI64(b, l)
	}
	b = appendI64(b, s.nan)
	b = appendI64(b, s.posInf)
	b = appendI64(b, s.negInf)
	return b
}

// UnmarshalBinary replaces s with the decoded sum. It accepts only the
// canonical, carry-normalized limbs.
func (s *ExactSum) UnmarshalBinary(data []byte) error {
	if len(data) != exactSumWireSize || string(data[:4]) != exactSumMagic {
		return fmt.Errorf("stats: bad ExactSum encoding (len %d)", len(data))
	}
	var n ExactSum
	b := data[4:]
	for i := range n.limbs {
		b, n.limbs[i] = takeI64(b)
	}
	b, n.nan = takeI64(b)
	b, n.posInf = takeI64(b)
	_, n.negInf = takeI64(b)
	c := n
	c.normalize()
	if c.limbs != n.limbs {
		return fmt.Errorf("stats: ExactSum limbs are not carry-normalized")
	}
	*s = n
	return nil
}

// MarshalBinary encodes the sketch in canonical form: a fixed header, then
// one (key, count) pair per non-empty bucket in key order. The receiver is
// not mutated.
func (h *HistSketch) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, histSketchHeaderSize+len(h.buckets)*histSketchBucketSize)
	b = append(b, histSketchMagic...)
	b = appendI64(b, h.n)
	b = appendI64(b, h.nan)
	// min/max as raw bits: exact round-trip, and an empty sketch's 0/0 is
	// still canonical.
	b = appendU64(b, math.Float64bits(h.min))
	b = appendU64(b, math.Float64bits(h.max))
	sum := h.sum
	sum.normalize()
	b = sum.appendBinary(b)
	for _, k := range h.buckets {
		b = binary.LittleEndian.AppendUint32(b, uint32(k.key))
		b = appendI64(b, k.n)
	}
	return b, nil
}

// UnmarshalBinary replaces h with the decoded sketch. It accepts only the
// canonical encoding: keys strictly ascending and in range, every count
// positive, and the bucket counts plus the NaN count summing to n.
func (h *HistSketch) UnmarshalBinary(data []byte) error {
	if len(data) < histSketchHeaderSize || string(data[:4]) != histSketchMagic ||
		(len(data)-histSketchHeaderSize)%histSketchBucketSize != 0 {
		return fmt.Errorf("stats: bad HistSketch encoding (len %d)", len(data))
	}
	var n HistSketch
	var bits uint64
	b := data[4:]
	b, n.n = takeI64(b)
	b, n.nan = takeI64(b)
	b, bits = takeU64(b)
	n.min = math.Float64frombits(bits)
	b, bits = takeU64(b)
	n.max = math.Float64frombits(bits)
	if err := n.sum.UnmarshalBinary(b[:exactSumWireSize]); err != nil {
		return err
	}
	left, prev := n.n-n.nan, int32(-sketchOverKey-1) // left: what the buckets must hold
	for b = b[exactSumWireSize:]; len(b) > 0; {
		k := sketchBucket{key: int32(binary.LittleEndian.Uint32(b))}
		b, k.n = takeI64(b[4:])
		if k.key <= prev || k.key > sketchOverKey || k.n <= 0 || k.n > left {
			return fmt.Errorf("stats: HistSketch bucket %d (key %d, count %d) is not canonical", len(n.buckets), k.key, k.n)
		}
		prev, left = k.key, left-k.n
		n.buckets = append(n.buckets, k)
	}
	if n.nan < 0 || n.nan > n.n || left != 0 {
		return fmt.Errorf("stats: HistSketch counts do not add up to n = %d", n.n)
	}
	*h = n
	return nil
}
