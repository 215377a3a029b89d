package webpage

import (
	"time"

	"mobileqoe/internal/dsp"
)

// Cost-conversion calibration. A generated script is a scaled-down stand-in
// for a real page's JavaScript: each interpreter operation represents a
// bundle of real work (interpreter dispatch, DOM API crossings, GC), and
// each counted regex call represents RegexRepeat real evaluations that the
// offload prototype batches into a single FastRPC invocation. The constants
// are chosen so that the Alexa-like corpus reproduces the paper's absolute
// scale: ~4–6 s PLT on the Nexus4 at full clock with scripting ≈51–60% of
// compute and regex ≈20% of scripting (≈40% on the sports corpus).
const (
	// CyclesPerOp prices one interpreter operation in reference CPU cycles.
	CyclesPerOp = 3000.0
	// CyclesPerStrByte prices a byte of string traffic.
	CyclesPerStrByte = 30.0
	// RegexRepeat is how many real regex evaluations one counted call
	// stands for. When offloaded, a script's entire regex workload is
	// batched into a single FastRPC invocation (function-level offload, as
	// in the paper's prototype).
	RegexRepeat = 100.0
)

// PlainCycles returns the script's non-regex CPU cost in reference cycles.
func (p *Profile) PlainCycles() float64 {
	return float64(p.Ops)*CyclesPerOp + float64(p.StrBytes)*CyclesPerStrByte
}

// RegexCPUCycles returns the CPU cost of all regex work (backtracking
// engine), in reference cycles.
func (p *Profile) RegexCPUCycles() float64 {
	return dsp.CPUCycles(p.Regex.BTSteps) * RegexRepeat
}

// TotalCPUCycles is the whole script priced on the CPU.
func (p *Profile) TotalCPUCycles() float64 {
	return p.PlainCycles() + p.RegexCPUCycles()
}

// RegexDSPTime returns the wall-clock time the script's regex work takes on
// the given DSP: the whole workload ships as one batched FastRPC call
// (function-level offload), so the RPC overhead is paid once per script.
// Used by the ePLT re-evaluation.
func (p *Profile) RegexDSPTime(d *dsp.DSP) time.Duration {
	if p.Regex.Count == 0 {
		return 0
	}
	return d.Latency(p.RegexDSPWork())
}

// RegexDSPWork returns the Pike-VM steps and the input bytes of the
// script's regex work, scaled by RegexRepeat: what one batched FastRPC call
// ships to the DSP.
func (p *Profile) RegexDSPWork() (steps int64, bytes int) {
	return int64(float64(p.Regex.PikeSteps) * RegexRepeat), int(float64(p.Regex.InputBytes) * RegexRepeat)
}

// NumRegexCalls returns the number of counted regex evaluations (before
// RegexRepeat scaling); when offloaded they travel in a single RPC.
func (p *Profile) NumRegexCalls() int { return int(p.Regex.Count) }
