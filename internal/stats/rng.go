// Package stats supplies the measurement toolkit the reproduction is built
// on: a deterministic seedable RNG (so every experiment run is bit-for-bit
// repeatable), summary statistics, percentiles, and empirical CDFs matching
// the aggregates the paper reports (mean ± stddev over 20 trials, median
// power, CDF curves).
package stats

import "math"

// RNG is a small, fast, deterministic random number generator
// (splitmix64-seeded xoshiro-style state). It deliberately avoids math/rand
// global state so that concurrent experiments never perturb each other.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded from the given value. Two RNGs created
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{s0: SplitMix64(seed, 0), s1: SplitMix64(seed, 1)}
	if r.s0 == 0 && r.s1 == 0 {
		r.s1 = 1
	}
	return r
}

// SplitMix64 returns output n of the splitmix64 generator seeded with seed:
// the state advanced n+1 golden-ratio steps, then finalized. It is the one
// seed mixer: NewRNG's two state words, per-system fault seeds and fleet
// tuple seeds all derive from it, and checkpoints pin its schedule.
func SplitMix64(seed, n uint64) uint64 {
	z := seed + (n+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// Uint64 returns the next 64 random bits (xoroshiro128+).
func (r *RNG) Uint64() uint64 {
	s0, s1 := r.s0, r.s1
	result := s0 + s1
	s1 ^= s0
	r.s0 = rotl(s0, 55) ^ s1 ^ (s1 << 14)
	r.s1 = rotl(s1, 36)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Pareto returns a bounded Pareto sample in [lo, hi] with shape alpha,
// the canonical heavy-tailed model for web object sizes.
func (r *RNG) Pareto(alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo || alpha <= 0 {
		panic("stats: invalid Pareto parameters")
	}
	u := r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}
