// Package mem models the memory-capacity treatment of the paper's §3
// experiments. The paper squeezes usable RAM by carving RAM disks out of a
// rooted phone; here a Memory takes total RAM, reserves an OS share, and
// converts working-set pressure into an execution slowdown factor (page
// faults stealing cycles) that the application models multiply into their
// task costs.
//
// Calibration anchor (Fig. 3b): the browser workload roughly doubles its PLT
// when RAM drops from 2 GB to 512 MB, and is barely affected above 1 GB.
package mem

import (
	"math"

	"mobileqoe/internal/units"
)

// Config describes the memory subsystem.
type Config struct {
	RAM units.ByteSize // total device RAM
}

// Memory answers working-set pressure queries.
type Memory struct {
	cfg Config
}

// Thrash-model constants: slowdown = 1 + alpha*(pressure-1)^beta once the
// working set exceeds available RAM.
const (
	thrashAlpha = 0.31
	thrashBeta  = 1.0
)

// osReserved is the RAM the kernel and system services keep.
const osReserved = 300 * units.MB

// New constructs a Memory. RAM must be positive.
func New(cfg Config) *Memory {
	if cfg.RAM <= 0 {
		panic("mem: RAM must be positive")
	}
	return &Memory{cfg: cfg}
}

// Available returns RAM left for applications after the OS reservation.
// It never reports less than 64 MB: Android's low-memory killer keeps a
// working floor rather than letting available memory reach zero.
func (m *Memory) Available() units.ByteSize {
	avail := m.cfg.RAM - osReserved
	if avail < 64*units.MB {
		avail = 64 * units.MB
	}
	return avail
}

// Pressure returns workingSet / Available (1.0 = exactly fits).
func (m *Memory) Pressure(workingSet units.ByteSize) float64 {
	if workingSet <= 0 {
		return 0
	}
	return float64(workingSet) / float64(m.Available())
}

// Slowdown returns the multiplicative execution penalty for a task with the
// given working set: 1.0 while the set fits, growing smoothly with paging
// pressure beyond that.
func (m *Memory) Slowdown(workingSet units.ByteSize) float64 {
	p := m.Pressure(workingSet)
	if p <= 1 {
		return 1
	}
	return 1 + thrashAlpha*math.Pow(p-1, thrashBeta)
}
