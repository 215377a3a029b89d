// Package history regenerates the paper's Fig. 1: the 2011–2018 evolution
// of Web page demands versus device capability. The paper mined 480 Android
// device specifications and the HTTP Archive's page-weight history; neither
// dataset ships with this reproduction, so a deterministic synthetic
// population with the same published trend lines stands in (DESIGN.md §1):
// clocks grow ~1.0→2.4 GHz, cores 2→8, RAM 0.5→6 GB, OS 2.3→8.0, while the
// average page grows 0.2→2 MB and its scripting complexity grows faster
// than device capability — which is why estimated PLT *rises* ~4× across
// the window despite eight years of hardware progress.
package history

import (
	"time"

	"mobileqoe/internal/stats"
	"mobileqoe/internal/units"
)

// Years covered by Fig. 1.
const (
	FirstYear = 2011
	LastYear  = 2018
)

// DeviceRecord is one synthetic mined-spec entry.
type DeviceRecord struct {
	Year      int
	Clock     units.Freq
	Cores     int
	RAM       units.ByteSize
	OSVersion float64
}

// YearStats aggregates one year of Fig. 1's series.
type YearStats struct {
	Year      int
	AvgClock  units.Freq
	AvgCores  float64
	AvgRAMGB  float64
	AvgOS     float64
	PageGrade PageGrade
	EstPLT    time.Duration
}

// PageGrade describes the era's average page.
type PageGrade struct {
	Size units.ByteSize
	// ScriptShare is the fraction of page bytes that are JavaScript; it
	// grows across the window (sites ship ever more framework code).
	ScriptShare float64
}

// trend linearly interpolates a metric across the window.
func trend(year int, first, last float64) float64 {
	f := float64(year-FirstYear) / float64(LastYear-FirstYear)
	return first + f*(last-first)
}

// PageForYear returns the era-average page.
func PageForYear(year int) PageGrade {
	return PageGrade{
		Size:        units.ByteSize(trend(year, 0.2, 2.0) * float64(units.MB)),
		ScriptShare: trend(year, 0.12, 0.33),
	}
}

// Devices generates n synthetic device records spread across the window,
// mirroring the paper's 480 mined specifications.
func Devices(seed uint64, n int) []DeviceRecord {
	rng := stats.NewRNG(seed ^ 0x1157)
	years := LastYear - FirstYear + 1
	out := make([]DeviceRecord, 0, n)
	for i := 0; i < n; i++ {
		year := FirstYear + i%years
		clockGHz := trend(year, 1.0, 2.4) * rng.Range(0.75, 1.25)
		cores := int(trend(year, 2, 8)*rng.Range(0.7, 1.3) + 0.5)
		if cores < 1 {
			cores = 1
		}
		ramGB := trend(year, 0.5, 6) * rng.Range(0.6, 1.4)
		os := trend(year, 2.3, 8.0) + rng.Range(-0.4, 0.4)
		out = append(out, DeviceRecord{
			Year:      year,
			Clock:     units.GHz(clockGHz),
			Cores:     cores,
			RAM:       units.ByteSize(ramGB * float64(units.GB)),
			OSVersion: os,
		})
	}
	return out
}

// PLT estimation constants. The closed form mirrors the browser model at
// coarse grain: compute is page bytes times an era complexity factor divided
// by the usable device rate (the browser exploits at most two cores), plus
// network time on an era-typical mobile link.
const (
	// complexityBase converts page bytes to reference cycles in 2011;
	// complexity compounds yearly as pages shift from markup to script.
	complexityBase   = 2600.0
	complexityGrowth = 1.38 // per year
	// ipcGrowth: microarchitectures improve a little every year.
	ipcBase   = 0.85
	ipcGrowth = 1.06
	// usable network bandwidth seen by a page load (era mobile networks).
	netBase   = 2.0e6 // bits/sec in 2011
	netGrowth = 1.35  // per year
	rttBase   = 0.35  // seconds of request overhead per page in 2011
	rttShrink = 0.93
)

// EstimatePLT returns the closed-form PLT for a device of the given year
// loading that year's average page.
func EstimatePLT(d DeviceRecord) time.Duration {
	page := PageForYear(d.Year)
	years := float64(d.Year - FirstYear)
	complexity := complexityBase * pow(complexityGrowth, years)
	ipc := ipcBase * pow(ipcGrowth, years)
	usableCores := 2.0 // the browser's effective parallelism
	if d.Cores < 2 {
		usableCores = float64(d.Cores)
	}
	rate := d.Clock.Hz() * ipc * (1 + 0.25*(usableCores-1))
	compute := float64(page.Size) * complexity * (1 + page.ScriptShare) / rate
	bw := netBase * pow(netGrowth, years)
	network := float64(page.Size)*8/bw + rttBase*pow(rttShrink, years)*12
	return time.Duration((compute + network) * float64(time.Second))
}

func pow(b float64, e float64) float64 {
	r := 1.0
	for i := 0; i < int(e); i++ {
		r *= b
	}
	frac := e - float64(int(e))
	if frac > 0 {
		// Linear blend for the fractional year; precision is irrelevant here.
		r *= 1 + frac*(b-1)
	}
	return r
}

// Evolution aggregates the synthetic population into Fig. 1's per-year rows.
func Evolution(seed uint64, devices int) []YearStats {
	recs := Devices(seed, devices)
	byYear := map[int][]DeviceRecord{}
	for _, r := range recs {
		byYear[r.Year] = append(byYear[r.Year], r)
	}
	var out []YearStats
	for year := FirstYear; year <= LastYear; year++ {
		rs := byYear[year]
		var clock, cores, ram, os stats.Sample
		var plt stats.Sample
		for _, r := range rs {
			clock.Add(r.Clock.GHz())
			cores.Add(float64(r.Cores))
			ram.Add(r.RAM.GBf())
			os.Add(r.OSVersion)
			plt.Add(EstimatePLT(r).Seconds())
		}
		out = append(out, YearStats{
			Year:      year,
			AvgClock:  units.GHz(clock.Mean()),
			AvgCores:  cores.Mean(),
			AvgRAMGB:  ram.Mean(),
			AvgOS:     os.Mean(),
			PageGrade: PageForYear(year),
			EstPLT:    time.Duration(plt.Mean() * float64(time.Second)),
		})
	}
	return out
}
