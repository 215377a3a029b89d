package stats

import (
	"math"
	"slices"
	"sort"
)

// HistSketch bucket layout.
const (
	// sketchSubBits sub-divides each power of two into 2^sketchSubBits
	// geometric buckets, read straight off the top mantissa bits — no log
	// calls on the observe path.
	sketchSubBits = 4
	sketchSubs    = 1 << sketchSubBits
	// Covered magnitude range [2^sketchMinExp, 2^sketchMaxExp): ~2.3e-10
	// to ~4.3e9 — generous for the millisecond/byte/count scales the
	// simulator records. Magnitudes outside land in underflow/overflow
	// buckets whose estimates clamp to the tracked exact min/max.
	sketchMinExp = -32
	sketchMaxExp = 32
	sketchBins   = (sketchMaxExp - sketchMinExp) * sketchSubs
	// sketchOverKey is the overflow bucket's key; see sketchKey.
	sketchOverKey = sketchBins + 2
)

// sketchBucket is one non-empty bucket: its key and its observation count.
type sketchBucket struct {
	key int32
	n   int64
}

// HistSketch is a bounded-memory histogram: geometric buckets (16 per power
// of two over [2^-32, 2^32), per sign, plus zero/underflow/overflow), exact
// count/min/max, and an ExactSum for the mean. It keeps only its non-empty
// buckets, as one slice sorted by key (see sketchKey), so it costs what it
// holds: 16 bytes per non-empty bucket (12 encoded), at most 2,053 of
// them. Observe allocates only when it opens a bucket.
//
// Merge is exact: every field is an integer tally, an order-insensitive
// min/max, or an ExactSum, so merging N shard sketches — in any order or
// grouping — yields the same bytes as one sketch observing every sample.
// This is the aggregate the fleet/sharding direction builds on: quantiles,
// mean, and bounds survive a 100-way shard merge byte-identically.
//
// Quantile error: within the covered range a bucket spans a 2^(1/16)-ish
// ratio, so interpolated quantile estimates carry at most ~6.25% relative
// error (width/lower-bound = 1/16 at the start of each octave), typically
// ~3%; exact zeros are exact, and estimates clamp into the observed
// [Min, Max]. The property tests pin this against exact quantiles over
// 300+ random distributions.
//
// The zero HistSketch is empty and ready to use. A value copy shares its
// buckets with the original, so hold sketches by pointer and combine them
// with Merge. Not safe for concurrent writers (like the rest of the
// registry machinery: one owner per cell).
type HistSketch struct {
	n, nan   int64
	min, max float64
	sum      ExactSum
	buckets  []sketchBucket // non-empty, ascending key
	memo     [16]int32      // bucket indexes by key modulo 16; see add
}

// sketchKey maps a non-NaN value to its bucket key: 0 for an exact zero, 1
// for underflow, 2+i for geometric bucket i, sketchOverKey for overflow,
// and the negated key for a negative value, so ascending keys are
// ascending values.
func sketchKey(v float64) int32 {
	b := math.Float64bits(v)
	e := int(b>>52&0x7ff) - 1023 // subnormals: biased 0 → -1023 → underflow
	sub := int(b>>(52-sketchSubBits)) & (sketchSubs - 1)
	k := int32(2 + (e-sketchMinExp)*sketchSubs + sub)
	switch {
	case v == 0:
		return 0
	case e < sketchMinExp:
		k = 1
	case e >= sketchMaxExp:
		k = sketchOverKey
	}
	if v < 0 {
		return -k
	}
	return k
}

// Observe records v.
func (h *HistSketch) Observe(v float64) {
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum.Add(v)
	if math.IsNaN(v) {
		h.nan++ // counted, excluded from quantiles (min/max ignore NaN too)
		return
	}
	h.add(sketchKey(v), 1)
}

// add counts c observations into the bucket with key k, opening it in key
// order if it is not there yet. A registry stream mostly revisits a few
// buckets, so memo keeps the index last found for each key modulo its
// size; an entry made stale by an opened bucket fails the key check and
// falls back to the search.
func (h *HistSketch) add(k int32, c int64) {
	b, m := h.buckets, &h.memo[uint32(k)%uint32(len(h.memo))]
	i := int(*m)
	if i >= len(b) || b[i].key != k {
		i = sort.Search(len(b), func(j int) bool { return b[j].key >= k })
		if i == len(b) || b[i].key != k {
			h.buckets = slices.Insert(b, i, sketchBucket{key: k})
		}
		*m = int32(i)
	}
	h.buckets[i].n += c
}

// N returns the observation count.
func (h *HistSketch) N() int64 { return h.n }

// Min returns the smallest observation (0 when empty).
func (h *HistSketch) Min() float64 { return h.min }

// Max returns the largest observation (0 when empty).
func (h *HistSketch) Max() float64 { return h.max }

// Sum returns the exact sum rounded once to float64.
func (h *HistSketch) Sum() float64 { return h.sum.Value() }

// Mean returns Sum()/N() (0 when empty). Because the sum is exact, the
// mean is a pure function of the observed multiset — identical across any
// shard/merge decomposition.
func (h *HistSketch) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum.Value() / float64(h.n)
}

// Merge folds o into h. Exact: see the type comment.
func (h *HistSketch) Merge(o *HistSketch) {
	if o == nil || o.n == 0 {
		return
	}
	if h.n == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.n += o.n
	h.nan += o.nan
	h.sum.Merge(&o.sum)
	for _, b := range o.buckets {
		h.add(b.key, b.n)
	}
}

// bucketBounds returns the value interval of positive bucket i.
func bucketBounds(i int) (lo, hi float64) {
	e := sketchMinExp + i/sketchSubs
	sub := float64(i%sketchSubs) / sketchSubs
	scale := math.Ldexp(1, e)
	return scale * (1 + sub), scale * (1 + sub + 1.0/sketchSubs)
}

// keyBounds returns the value interval of the bucket with key k. The
// overflow buckets reach out to the observed extremes.
func (h *HistSketch) keyBounds(k int32) (lo, hi float64) {
	switch {
	case k == sketchOverKey:
		return math.Ldexp(1, sketchMaxExp), h.max
	case k == -sketchOverKey:
		return h.min, -math.Ldexp(1, sketchMaxExp)
	case k < 0:
		lo, hi = h.keyBounds(-k)
		return -hi, -lo
	case k == 0:
		return 0, 0
	case k == 1:
		return 0, math.Ldexp(1, sketchMinExp)
	}
	return bucketBounds(int(k) - 2)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by rank interpolation
// over the buckets. NaN observations are excluded; an all-NaN sketch
// returns NaN. The estimate depends only on the merged state, so it is
// identical across shard decompositions.
func (h *HistSketch) Quantile(q float64) float64 {
	total := h.n - h.nan
	if total <= 0 {
		if h.nan > 0 {
			return math.NaN()
		}
		return 0
	}
	rank := min(max(q, 0), 1) * float64(total-1) // continuous rank in [0, total-1]
	cum := 0.0
	var out float64
	// Ascending value order: most-negative first.
	for _, b := range h.buckets {
		cnt := float64(b.n)
		if rank < cum+cnt || cum+cnt >= float64(total) {
			frac := min(max((rank-cum)/cnt, 0), 1)
			lo, hi := h.keyBounds(b.key)
			out = lo + frac*(hi-lo)
			break
		}
		cum += cnt
	}
	// Clamp into the observed range: bucket edges can poke past the true
	// extremes, and the extremes are tracked exactly.
	if out < h.min {
		out = h.min
	}
	if out > h.max {
		out = h.max
	}
	return out
}
