package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(7)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) over 1000 draws covered %d values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGParetoBounds(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 5000; i++ {
		v := r.Pareto(1.3, 10, 1000)
		if v < 10-1e-9 || v > 1000+1e-9 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Std() != 0 || len(s.Values()) != 0 {
		t.Fatal("empty sample should be all zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if n := len(s.Values()); n != 8 {
		t.Fatalf("%d values, want 8", n)
	}
	if m := s.Mean(); m != 5 {
		t.Fatalf("Mean = %v", m)
	}
	if sd := s.Std(); math.Abs(sd-2.138) > 0.01 {
		t.Fatalf("Std = %v, want ~2.138", sd)
	}
	if med := s.Median(); med != 4.5 {
		t.Fatalf("Median = %v", med)
	}
}

func TestCI95(t *testing.T) {
	var s Sample
	if s.CI95() != 0 {
		t.Fatal("empty sample should have zero CI")
	}
	s.Add(5)
	if s.CI95() != 0 {
		t.Fatal("single observation should have zero CI")
	}
	s.Add(7) // {5, 7}: std = sqrt(2), ci95 = 1.96*sqrt(2)/sqrt(2) = 1.96
	if got := s.CI95(); math.Abs(got-1.96) > 1e-9 {
		t.Fatalf("CI95 = %v, want 1.96", got)
	}
	// Quadrupling n at the same spread halves the half-width.
	var big Sample
	for i := 0; i < 4; i++ {
		big.Add(5)
		big.Add(7)
	}
	if got, want := big.CI95(), 1.96*big.Std()/math.Sqrt(8); math.Abs(got-want) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
	if big.CI95() >= s.CI95() {
		t.Fatal("larger sample at same spread should shrink the interval")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var s Sample
	for _, x := range []float64{10, 20, 30, 40} {
		s.Add(x)
	}
	tests := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {-5, 10}, {150, 40},
	}
	for _, tt := range tests {
		if got := s.Percentile(tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestCDF(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 2, 3} {
		s.Add(x)
	}
	c := NewCDF(&s)
	// Duplicates collapse to their highest cumulative probability.
	if want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1}}; !slices.Equal(c.pts, want) {
		t.Fatalf("points %v, want %v", c.pts, want)
	}
	if q := c.Quantile(0.5); q != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", q)
	}
	if q := c.Quantile(1); q != 3 {
		t.Errorf("Quantile(1) = %v, want 3", q)
	}
}

// Property: a CDF is monotone non-decreasing in both coordinates and ends
// at probability 1.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		pts := NewCDF(&s).pts
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X || pts[i].P < pts[i-1].P {
				return false
			}
		}
		return math.Abs(pts[len(pts)-1].P-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundsProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true
			}
			s.Add(v)
		}
		if len(vals) == 0 {
			return true
		}
		m := s.Mean()
		return m >= slices.Min(vals)-1e-6 && m <= slices.Max(vals)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
