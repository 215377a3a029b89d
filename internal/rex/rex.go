// Package rex is a regular-expression engine built from scratch for the
// regex-offload study in the paper's §4.2. It compiles a practical pattern
// subset to NFA bytecode and executes it with two interchangeable engines:
//
//   - a Pike VM (Thompson NFA simulation) with linear-time guarantees — the
//     engine "ported to the DSP" in the reproduction, and
//   - a backtracking engine — the baseline comparator, matching how
//     JavaScript engines evaluate regexes on the CPU.
//
// Every execution reports how many engine steps it took. Steps are the
// abstract work unit that internal/dsp converts into CPU or DSP cycles,
// time, and energy; counting them in the engine itself is what lets the
// offload experiments replay *real* pattern/input workloads rather than
// assumed costs.
//
// Supported syntax: literals, '.', character classes ([^a-z0-9_] ranges),
// escapes (\d \D \w \W \s \S and punctuation), anchors ^ $, grouping (...)
// and (?:...), alternation, and the quantifiers * + ? {n} {n,} {n,m}
// (greedy). Capture extraction is not implemented — groups only group —
// because the offload workload needs match decisions, spans, and costs.
package rex

import (
	"errors"
	"fmt"
)

// Result describes one engine run.
type Result struct {
	Matched bool
	Start   int // byte offset of the leftmost match (valid when Matched)
	End     int // byte offset one past the match end (leftmost-longest)
	Steps   int64
}

// ErrStepLimit is returned by the backtracking engine when a run exceeds its
// step budget (the classic catastrophic-backtracking failure mode).
var ErrStepLimit = errors.New("rex: backtracking step limit exceeded")

// Prog is a compiled pattern.
type Prog struct {
	pattern string
	insts   []inst
	// anchoredStart is true when the pattern begins with ^ (no unanchored
	// restart scan is needed).
	anchoredStart bool
}

func (p *Prog) String() string {
	return fmt.Sprintf("rex.Prog(%q, %d insts)", p.pattern, len(p.insts))
}

// Compile parses and compiles a pattern.
func Compile(pattern string) (*Prog, error) {
	ast, err := parse(pattern)
	if err != nil {
		return nil, fmt.Errorf("rex: %w", err)
	}
	p := compile(ast)
	p.pattern = pattern
	return p, nil
}

// MustCompile is Compile that panics on error, for static patterns.
func MustCompile(pattern string) *Prog {
	p, err := Compile(pattern)
	if err != nil {
		panic(err)
	}
	return p
}

// Run executes the Pike VM over s, returning the leftmost-longest match
// and the steps consumed.
func (p *Prog) Run(s string) Result { return p.pike(s) }

// RunBacktrack executes the backtracking engine with the given step budget
// (0 means DefaultBacktrackLimit). It reports leftmost-first semantics.
func (p *Prog) RunBacktrack(s string, maxSteps int64) (Result, error) {
	return p.backtrack(s, maxSteps)
}

// DefaultBacktrackLimit bounds backtracking work per run.
const DefaultBacktrackLimit = 2_000_000
