package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestFreqConstructors(t *testing.T) {
	tests := []struct {
		got  Freq
		want float64
	}{
		{KHz(1), 1e3},
		{MHz(384), 384e6},
		{GHz(2.457), 2.457e9},
	}
	for _, tt := range tests {
		if tt.got.Hz() != tt.want {
			t.Errorf("got %v Hz, want %v", tt.got.Hz(), tt.want)
		}
	}
}

func TestFreqString(t *testing.T) {
	tests := []struct {
		f    Freq
		want string
	}{
		{GHz(1.5), "1.50GHz"},
		{MHz(384), "384MHz"},
		{KHz(32), "32kHz"},
		{Freq(440), "440Hz"},
	}
	for _, tt := range tests {
		if got := tt.f.String(); got != tt.want {
			t.Errorf("%v.String() = %q, want %q", tt.f.Hz(), got, tt.want)
		}
	}
}

func TestCyclesRoundTrip(t *testing.T) {
	f := MHz(1512)
	d := 250 * time.Millisecond
	back := DurationFor(378e6, f) // 1512e6 Hz × 0.25 s
	if diff := (back - d).Abs(); diff > time.Microsecond {
		t.Fatalf("round trip off by %v", diff)
	}
}

func TestDurationForEdgeCases(t *testing.T) {
	if d := DurationFor(1e9, 0); d != time.Duration(math.MaxInt64) {
		t.Errorf("zero freq should be infinite, got %v", d)
	}
	if d := DurationFor(0, MHz(100)); d != 0 {
		t.Errorf("zero cycles should be 0, got %v", d)
	}
	if d := DurationFor(-5, MHz(100)); d != 0 {
		t.Errorf("negative cycles should clamp to 0, got %v", d)
	}
	if d := DurationFor(math.Inf(1), MHz(100)); d != time.Duration(math.MaxInt64) {
		t.Errorf("infinite cycles should clamp, got %v", d)
	}
}

func TestByteSize(t *testing.T) {
	if (2 * GB).GBf() != 2 {
		t.Error("GBf")
	}
	if (3 * MB).MBf() != 3 {
		t.Error("MBf")
	}
	tests := []struct {
		b    ByteSize
		want string
	}{
		{512 * Byte, "512B"},
		{2 * KB, "2.0KB"},
		{(3 * MB) / 2, "1.50MB"},
		{4 * GB, "4.00GB"},
	}
	for _, tt := range tests {
		if got := tt.b.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int64(tt.b), got, tt.want)
		}
	}
}

func TestBitRate(t *testing.T) {
	r := Mbps(72)
	if r.Mbpsf() != 72 {
		t.Fatal("Mbpsf")
	}
	// 9 MB at 72 Mbps = 9*8/72 = 1 second... using decimal bits over binary bytes:
	d := r.TimeToSend(ByteSize(9e6))
	want := time.Second
	if diff := (d - want).Abs(); diff > time.Millisecond {
		t.Fatalf("TimeToSend = %v, want ~%v", d, want)
	}
	if got := r.BytesIn(time.Second); got != ByteSize(9e6) {
		t.Fatalf("BytesIn = %d, want 9e6", got)
	}
	if d := BitRate(0).TimeToSend(KB); d != time.Duration(math.MaxInt64) {
		t.Fatalf("zero rate should be infinite, got %v", d)
	}
}

func TestBitRateString(t *testing.T) {
	tests := []struct {
		r    BitRate
		want string
	}{
		{Mbps(48), "48.00Mbps"},
		{Kbps(256), "256.0Kbps"},
		{BitRate(100), "100bps"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// Property: sending then measuring the bytes back is (approximately) the
// identity for positive rates and sizes.
func TestSendReceiveInverseProperty(t *testing.T) {
	f := func(kb uint16, mbps uint8) bool {
		if kb == 0 || mbps == 0 {
			return true
		}
		r := Mbps(float64(mbps))
		n := ByteSize(kb) * KB
		d := r.TimeToSend(n)
		back := r.BytesIn(d)
		diff := back - n
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1+n/1000 // within 0.1% + rounding
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DurationFor is monotone in cycles for a fixed frequency.
func TestDurationMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		lo, hi := float64(a), float64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		fq := MHz(800)
		return DurationFor(lo, fq) <= DurationFor(hi, fq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
