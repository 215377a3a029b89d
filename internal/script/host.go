package script

import (
	"mobileqoe/internal/cache"
	"mobileqoe/internal/rex"
)

// RegexCall records one regex evaluation observed during script execution,
// priced on both engines so the offload study can replay the same workload
// on the CPU (backtracking) and on the DSP (Pike VM).
type RegexCall struct {
	Pattern   string
	InputLen  int
	Matched   bool
	BTSteps   int64 // backtracking-engine steps (CPU baseline)
	PikeSteps int64 // Pike-VM steps (DSP execution)
}

// regexKey identifies one priced regex evaluation.
type regexKey struct {
	pattern, input string
	limit          int64
}

// regexPrice is what pricing one evaluation on both engines yields.
type regexPrice struct {
	matched            bool
	start, end         int
	pikeSteps, btSteps int64
}

// regexMemo memoizes regex pricing process-wide. Page scripts repeat the
// same few thousand (pattern, input) pairs across hundreds of thousands of
// calls, and both rex engines are pure functions of (pattern, input,
// limit), so a hit returns exactly what a rerun would. Failed compiles are
// not cached.
var regexMemo = cache.New[regexKey, regexPrice](cache.Config{
	Name:       "script.regex",
	MaxEntries: 1 << 16,
	MaxBytes:   16 << 20,
})

// priceRegex runs pattern over input on the Pike VM and on the
// backtracker (bounded by limit; 0 means rex's default), through the memo.
func priceRegex(pattern, input string, limit int64) (regexPrice, error) {
	return regexMemo.GetOrLoad(regexKey{pattern, input, limit}, func() (regexPrice, int64, error) {
		p, err := rex.Compile(pattern)
		if err != nil {
			return regexPrice{}, 0, err
		}
		pr := p.Run(input)
		// On a step-limit error the result still carries the steps burned,
		// which is the price of the call.
		br, _ := p.RunBacktrack(input, limit)
		price := regexPrice{matched: pr.Matched, start: pr.Start, end: pr.End, pikeSteps: pr.Steps, btSteps: br.Steps}
		return price, int64(len(pattern) + len(input) + 64), nil // 64: entry overhead
	})
}

// RegexTotals sums a script's regex work, each evaluation priced on both
// engines through the process-wide memo. As a RegexHost it returns Pike VM
// results to the script (the engines agree on match semantics; the Pike VM
// never blows up) and keeps no per-call record, so its size does not grow
// with the number of calls. When the backtracker hits its step limit, the
// counted BT steps are the budget it burned: exactly the pathological-cost
// case that motivates offloading to a linear-time engine.
type RegexTotals struct {
	Count      int64 `json:"calls"`       // evaluations
	BTSteps    int64 `json:"bt_steps"`    // backtracking-engine steps (CPU baseline)
	PikeSteps  int64 `json:"pike_steps"`  // Pike-VM steps (DSP execution)
	InputBytes int64 `json:"input_bytes"` // bytes of input scanned
}

// ExecRegex implements RegexHost, pricing the backtracker with rex's
// default step limit.
func (t *RegexTotals) ExecRegex(pattern, input string) (bool, int, int, error) {
	r, err := t.price(pattern, input, 0)
	return r.matched, r.start, r.end, err
}

// price prices one evaluation and, when the pattern compiles, adds it.
func (t *RegexTotals) price(pattern, input string, limit int64) (regexPrice, error) {
	r, err := priceRegex(pattern, input, limit)
	if err != nil {
		return regexPrice{}, err
	}
	t.Count++
	t.BTSteps += r.btSteps
	t.PikeSteps += r.pikeSteps
	t.InputBytes += int64(len(input))
	return r, nil
}

// CountingHost is a RegexTotals that also records every call, for callers
// that look at calls one by one.
type CountingHost struct {
	RegexTotals
	Calls []RegexCall
	// BacktrackLimit bounds CPU-side pricing; 0 uses rex's default.
	BacktrackLimit int64
}

// NewCountingHost returns an empty recording host.
func NewCountingHost() *CountingHost { return &CountingHost{} }

// ExecRegex implements RegexHost.
func (h *CountingHost) ExecRegex(pattern, input string) (bool, int, int, error) {
	r, err := h.price(pattern, input, h.BacktrackLimit)
	if err != nil {
		return false, 0, 0, err
	}
	h.Calls = append(h.Calls, RegexCall{
		Pattern:   pattern,
		InputLen:  len(input),
		Matched:   r.matched,
		BTSteps:   r.btSteps,
		PikeSteps: r.pikeSteps,
	})
	return r.matched, r.start, r.end, nil
}

// TotalBTSteps returns the CPU-engine steps across recorded calls.
func (h *CountingHost) TotalBTSteps() int64 { return h.BTSteps }

// TotalPikeSteps returns the DSP-engine steps across recorded calls.
func (h *CountingHost) TotalPikeSteps() int64 { return h.PikeSteps }
