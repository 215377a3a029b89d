package mem

import (
	"testing"
	"testing/quick"

	"mobileqoe/internal/units"
)

func TestAvailableReservesOS(t *testing.T) {
	m := New(Config{RAM: 2 * units.GB})
	want := 2*units.GB - 300*units.MB
	if m.Available() != want {
		t.Fatalf("Available = %v, want %v", m.Available(), want)
	}
}

func TestAvailableFloor(t *testing.T) {
	m := New(Config{RAM: 320 * units.MB})
	if m.Available() != 64*units.MB {
		t.Fatalf("Available = %v, want 64MB floor", m.Available())
	}
}

func TestSlowdownNoneWhenFits(t *testing.T) {
	m := New(Config{RAM: 2 * units.GB})
	if s := m.Slowdown(900 * units.MB); s != 1 {
		t.Fatalf("fitting working set slowed by %v", s)
	}
}

func TestSlowdownGrowsWithPressure(t *testing.T) {
	ws := 900 * units.MB
	ramSizes := []units.ByteSize{512 * units.MB, 1 * units.GB, units.ByteSize(1.5 * float64(units.GB)), 2 * units.GB}
	prev := 1e12
	for _, ram := range ramSizes {
		s := New(Config{RAM: ram}).Slowdown(ws)
		if s > prev {
			t.Fatalf("slowdown not monotone: %v GB -> %v", ram.GBf(), s)
		}
		prev = s
	}
}

func TestCalibration512MBvs2GB(t *testing.T) {
	// Fig 3b anchor: a browser-scale working set (~900 MB with the browser,
	// page, and system caches) should roughly double execution cost at
	// 512 MB RAM versus 2 GB.
	ws := 900 * units.MB
	low := New(Config{RAM: 512 * units.MB}).Slowdown(ws)
	high := New(Config{RAM: 2 * units.GB}).Slowdown(ws)
	ratio := low / high
	if ratio < 1.8 || ratio > 2.6 {
		t.Fatalf("512MB/2GB slowdown ratio = %.2f, want ~2x", ratio)
	}
	// And ≥1GB should be a small effect (<15%).
	mid := New(Config{RAM: 1 * units.GB}).Slowdown(ws)
	if mid > 1.15 {
		t.Fatalf("1GB slowdown = %.2f, want <1.15", mid)
	}
}

func TestZeroWorkingSet(t *testing.T) {
	m := New(Config{RAM: units.GB})
	if m.Pressure(0) != 0 || m.Slowdown(0) != 1 {
		t.Fatal("zero working set should be free")
	}
}

func TestBadRAMPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive RAM did not panic")
		}
	}()
	New(Config{RAM: 0})
}

// Property: slowdown is always >= 1 and monotone non-decreasing in the
// working set for a fixed RAM size.
func TestSlowdownMonotoneProperty(t *testing.T) {
	m := New(Config{RAM: units.GB})
	f := func(a, b uint32) bool {
		lo, hi := units.ByteSize(a), units.ByteSize(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		sl, sh := m.Slowdown(lo*units.KB), m.Slowdown(hi*units.KB)
		return sl >= 1 && sl <= sh
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
