package stats

import "math"

// HistSketch bounds, chosen so the sketch is one flat allocation of a few
// kilobytes regardless of how many observations it absorbs.
const (
	// sketchSubBits sub-divides each power of two into 2^sketchSubBits
	// geometric buckets, read straight off the top mantissa bits — no log
	// calls on the observe path.
	sketchSubBits = 4
	sketchSubs    = 1 << sketchSubBits
	// Covered magnitude range [2^sketchMinExp, 2^sketchMaxExp): ~2.3e-10
	// to ~4.3e9 — generous for the millisecond/byte/count scales the
	// simulator records. Magnitudes outside land in dedicated under/over
	// buckets whose estimates clamp to the tracked exact min/max.
	sketchMinExp = -32
	sketchMaxExp = 32
	sketchBins   = (sketchMaxExp - sketchMinExp) * sketchSubs
)

// sketchSide is one sign's bucket array.
type sketchSide struct {
	under, over int64
	bins        [sketchBins]int64
}

// HistSketch is a bounded-memory histogram: fixed geometric buckets (16 per
// power of two over [2^-32, 2^32), per sign, plus zero/underflow/overflow),
// exact count/min/max, and an ExactSum for the mean. Size is a compile-time
// constant (~17 KB, see TestHistSketchFixedBudget) and Observe allocates
// nothing, so a million-sample histogram costs the same bytes as an empty
// one.
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
// The zero HistSketch is empty and ready to use. Not safe for concurrent
// writers (like the rest of the registry machinery: one owner per cell).
type HistSketch struct {
	n, zero, nan int64
	min, max     float64
	sum          ExactSum
	pos, neg     sketchSide
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
	switch {
	case math.IsNaN(v):
		h.nan++ // counted, excluded from quantiles (min/max ignore NaN too)
	case v == 0:
		h.zero++
	case v > 0:
		h.pos.observe(v)
	default:
		h.neg.observe(-v)
	}
}

func (s *sketchSide) observe(mag float64) {
	switch i := posBucket(mag); i {
	case -1:
		s.under++
	case sketchBins:
		s.over++
	default:
		s.bins[i]++
	}
}

// posBucket maps a positive magnitude to its geometric bucket index:
// -1 for underflow, sketchBins for overflow, else [0, sketchBins).
func posBucket(mag float64) int {
	b := math.Float64bits(mag)
	e := int(b>>52&0x7ff) - 1023 // subnormals: biased 0 → -1023 → underflow
	switch {
	case e < sketchMinExp:
		return -1
	case e >= sketchMaxExp:
		return sketchBins
	default:
		sub := int(b>>(52-sketchSubBits)) & (sketchSubs - 1)
		return (e-sketchMinExp)*sketchSubs + sub
	}
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
	h.zero += o.zero
	h.nan += o.nan
	h.sum.Merge(&o.sum)
	h.pos.merge(&o.pos)
	h.neg.merge(&o.neg)
}

func (s *sketchSide) merge(o *sketchSide) {
	s.under += o.under
	s.over += o.over
	for i := range s.bins {
		s.bins[i] += o.bins[i]
	}
}

// bucketBounds returns the value interval of positive bucket i.
func bucketBounds(i int) (lo, hi float64) {
	e := sketchMinExp + i/sketchSubs
	sub := float64(i%sketchSubs) / sketchSubs
	scale := math.Ldexp(1, e)
	return scale * (1 + sub), scale * (1 + sub + 1.0/sketchSubs)
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
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total-1) // continuous rank in [0, total-1]
	cum := 0.0
	// walk walks one bucket: interval [lo, hi] holding cnt observations.
	var out float64
	found := false
	walk := func(cnt int64, lo, hi float64) {
		if found || cnt == 0 {
			return
		}
		if rank < cum+float64(cnt) || cum+float64(cnt) >= float64(total) {
			frac := (rank - cum) / float64(cnt)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			out = lo + frac*(hi-lo)
			found = true
			return
		}
		cum += float64(cnt)
	}
	// Ascending value order: most-negative first.
	walk(h.neg.over, h.min, -math.Ldexp(1, sketchMaxExp))
	for i := sketchBins - 1; i >= 0; i-- {
		lo, hi := bucketBounds(i)
		walk(h.neg.bins[i], -hi, -lo)
	}
	walk(h.neg.under, -math.Ldexp(1, sketchMinExp), 0)
	walk(h.zero, 0, 0)
	walk(h.pos.under, 0, math.Ldexp(1, sketchMinExp))
	for i := 0; i < sketchBins; i++ {
		lo, hi := bucketBounds(i)
		walk(h.pos.bins[i], lo, hi)
	}
	walk(h.pos.over, math.Ldexp(1, sketchMaxExp), h.max)
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
