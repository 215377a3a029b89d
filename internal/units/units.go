// Package units defines the physical quantities the simulators trade in —
// clock frequencies, data sizes, and bit rates — together with the handful
// of conversions (time to retire a cycle count, serialization delay for a
// payload) that every other package needs.
package units

import (
	"fmt"
	"math"
	"time"
)

// Freq is a clock frequency in hertz.
type Freq float64

// Frequency constructors.
func KHz(v float64) Freq { return Freq(v * 1e3) }
func MHz(v float64) Freq { return Freq(v * 1e6) }
func GHz(v float64) Freq { return Freq(v * 1e9) }

// Hz returns the frequency in hertz as a float64.
func (f Freq) Hz() float64 { return float64(f) }

// MHz returns the frequency in megahertz.
func (f Freq) MHz() float64 { return float64(f) / 1e6 }

// GHz returns the frequency in gigahertz.
func (f Freq) GHz() float64 { return float64(f) / 1e9 }

func (f Freq) String() string {
	switch {
	case f >= GHz(1):
		return fmt.Sprintf("%.2fGHz", f.GHz())
	case f >= MHz(1):
		return fmt.Sprintf("%.0fMHz", f.MHz())
	case f >= KHz(1):
		return fmt.Sprintf("%.0fkHz", float64(f)/1e3)
	}
	return fmt.Sprintf("%.0fHz", float64(f))
}

// DurationFor returns the wall-clock time needed to retire the given number
// of cycles at frequency f. A non-positive frequency yields an effectively
// infinite duration, which the schedulers treat as "stalled".
func DurationFor(cycles float64, f Freq) time.Duration {
	if f <= 0 || math.IsInf(cycles, 1) {
		return time.Duration(math.MaxInt64)
	}
	if cycles <= 0 {
		return 0
	}
	sec := cycles / float64(f)
	if sec > 9e9 { // clamp rather than overflow time.Duration
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(sec * float64(time.Second))
}

// ByteSize is a count of bytes.
type ByteSize int64

// Byte size units.
const (
	Byte ByteSize = 1
	KB            = 1024 * Byte
	MB            = 1024 * KB
	GB            = 1024 * MB
)

// MBf returns the size in (binary) megabytes as a float64.
func (b ByteSize) MBf() float64 { return float64(b) / float64(MB) }

// GBf returns the size in (binary) gigabytes as a float64.
func (b ByteSize) GBf() float64 { return float64(b) / float64(GB) }

func (b ByteSize) String() string {
	switch {
	case b >= GB:
		return fmt.Sprintf("%.2fGB", b.GBf())
	case b >= MB:
		return fmt.Sprintf("%.2fMB", b.MBf())
	case b >= KB:
		return fmt.Sprintf("%.1fKB", float64(b)/float64(KB))
	}
	return fmt.Sprintf("%dB", int64(b))
}

// BitRate is a data rate in bits per second.
type BitRate float64

// Bit-rate constructors.
func Kbps(v float64) BitRate { return BitRate(v * 1e3) }
func Mbps(v float64) BitRate { return BitRate(v * 1e6) }

// Mbpsf returns the rate in megabits per second.
func (r BitRate) Mbpsf() float64 { return float64(r) / 1e6 }

func (r BitRate) String() string {
	switch {
	case r >= Mbps(1):
		return fmt.Sprintf("%.2fMbps", r.Mbpsf())
	case r >= Kbps(1):
		return fmt.Sprintf("%.1fKbps", float64(r)/1e3)
	}
	return fmt.Sprintf("%.0fbps", float64(r))
}

// TimeToSend returns the serialization delay for n bytes at rate r.
func (r BitRate) TimeToSend(n ByteSize) time.Duration {
	if r <= 0 {
		return time.Duration(math.MaxInt64)
	}
	sec := float64(n) * 8 / float64(r)
	return time.Duration(sec * float64(time.Second))
}

// BytesIn returns how many bytes rate r delivers over duration d.
func (r BitRate) BytesIn(d time.Duration) ByteSize {
	return ByteSize(float64(r) / 8 * d.Seconds())
}
