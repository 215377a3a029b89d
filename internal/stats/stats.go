package stats

import (
	"math"
	"sort"
)

// Sample accumulates scalar observations and answers the summary questions
// the paper's tables need (mean, stddev, percentiles).
// The zero value is an empty sample ready for Add.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Sum returns the sum of observations.
func (s *Sample) Sum() float64 {
	t := 0.0
	for _, x := range s.xs {
		t += x
	}
	return t
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.xs))
}

// Std returns the sample standard deviation (n-1 denominator), or 0 when
// fewer than two observations exist.
func (s *Sample) Std() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	v := 0.0
	for _, x := range s.xs {
		d := x - m
		v += d * d
	}
	return math.Sqrt(v / float64(n-1))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean, 1.96·s/√n, or 0 with fewer than two observations.
// (The paper's 20-trial medians make the normal approximation adequate.)
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return 1.96 * s.Std() / math.Sqrt(float64(n))
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Values returns a copy of the observations in insertion-independent
// (sorted) order.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	sort.Float64s(out)
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // cumulative probability in (0, 1]
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	pts []CDFPoint
}

// NewCDF builds the empirical CDF of the observations in s.
func NewCDF(s *Sample) *CDF {
	vals := s.Values()
	n := len(vals)
	c := &CDF{}
	for i, v := range vals {
		// Collapse duplicate x values to the highest cumulative probability.
		p := float64(i+1) / float64(n)
		if len(c.pts) > 0 && c.pts[len(c.pts)-1].X == v {
			c.pts[len(c.pts)-1].P = p
		} else {
			c.pts = append(c.pts, CDFPoint{X: v, P: p})
		}
	}
	return c
}

// Quantile returns the smallest x with P(X <= x) >= p.
func (c *CDF) Quantile(p float64) float64 {
	if len(c.pts) == 0 {
		return 0
	}
	for _, pt := range c.pts {
		if pt.P >= p {
			return pt.X
		}
	}
	return c.pts[len(c.pts)-1].X
}
