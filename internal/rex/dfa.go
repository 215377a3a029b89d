package rex

import (
	"sort"
	"strings"
	"unicode/utf8"
)

// Lazy-DFA execution: NFA state sets are determinized on demand and
// transitions are memoized, so steady-state matching costs ~one step per
// input rune regardless of pattern complexity — the execution strategy
// grep-family tools use, included here as the third engine in the
// engine-choice ablation (backtracking vs Pike VM vs DFA).
//
// The DFA answers boolean containment ("does the pattern match anywhere"),
// which is all the offload policy needs; span extraction stays with the
// Pike VM.

// dfaState is one determinized state: a sorted set of NFA pcs at char
// instructions, plus whether the set already includes an accept.
type dfaState struct {
	pcs      []int
	match    bool // accepting through mid-input closure
	endMatch bool // accepting if input ends here (EOL paths)
	next     map[rune]*dfaState
}

// DFA is a lazily built deterministic matcher for a Prog.
type DFA struct {
	prog   *Prog
	start  *dfaState
	states map[string]*dfaState
	// steps counts state-set constructions (the expensive operations);
	// cached transitions cost one step per rune.
	buildSteps int64
}

// maxDFAStates bounds memoization; pathological patterns fall back to
// recomputing transitions rather than growing without bound.
const maxDFAStates = 4096

// NewDFA prepares a lazy DFA for the program.
func (p *Prog) NewDFA() *DFA {
	d := &DFA{prog: p, states: map[string]*dfaState{}}
	d.start = d.closure([]int{0}, true)
	return d
}

// closure eps-expands the given pcs. atBOL permits ^ transitions.
// The result contains only char-consuming pcs, with match flags for accept
// states reachable without consuming input.
func (d *DFA) closure(pcs []int, atBOL bool) *dfaState {
	d.buildSteps++
	seen := map[int]bool{}
	var chars []int
	match := false
	endMatch := false
	var walk func(pc int, afterEOL bool)
	walk = func(pc int, afterEOL bool) {
		// afterEOL marks paths that crossed a $: they only accept at
		// end-of-input and cannot consume further characters.
		key := pc
		if afterEOL {
			key = pc + len(d.prog.insts) // separate visited space
		}
		if seen[key] {
			return
		}
		seen[key] = true
		in := d.prog.insts[pc]
		switch in.op {
		case opJmp:
			walk(in.x, afterEOL)
		case opSplit:
			walk(in.x, afterEOL)
			walk(in.y, afterEOL)
		case opBOL:
			if atBOL {
				walk(pc+1, afterEOL)
			}
		case opEOL:
			walk(pc+1, true)
		case opMatch:
			if afterEOL {
				endMatch = true
			} else {
				match = true
			}
		default: // char/any
			if !afterEOL {
				chars = append(chars, pc)
			} else {
				// A char after $ can never match; drop it.
				_ = pc
			}
		}
	}
	for _, pc := range pcs {
		walk(pc, false)
	}
	sort.Ints(chars)
	st := &dfaState{pcs: chars, match: match, endMatch: endMatch}
	key := stateKey(chars, match, endMatch, atBOL)
	if cached, ok := d.states[key]; ok {
		return cached
	}
	if len(d.states) < maxDFAStates {
		d.states[key] = st
	}
	return st
}

func stateKey(pcs []int, match, endMatch, atBOL bool) string {
	var b strings.Builder
	for _, pc := range pcs {
		b.WriteString(itoa(pc))
		b.WriteByte(',')
	}
	if match {
		b.WriteByte('M')
	}
	if endMatch {
		b.WriteByte('E')
	}
	if atBOL {
		b.WriteByte('^')
	}
	return b.String()
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// step computes (and memoizes) the transition from st on rune c, always
// re-seeding the unanchored start (standard "match anywhere" construction).
func (d *DFA) step(st *dfaState, c rune, unanchored bool) *dfaState {
	if nxt, ok := st.next[c]; ok {
		return nxt
	}
	var moved []int
	for _, pc := range st.pcs {
		if d.prog.insts[pc].matches(c) {
			moved = append(moved, pc+1)
		}
	}
	if unanchored {
		moved = append(moved, 0) // restart a match attempt at the next position
	}
	nxt := d.closure(moved, false)
	if st.next == nil {
		st.next = map[rune]*dfaState{}
	}
	if len(st.next) < 256 { // bound per-state fanout for rune-rich inputs
		st.next[c] = nxt
	}
	return nxt
}

// Match reports whether the pattern matches anywhere in s, and how many
// engine steps the scan took (cached transitions count 1 per rune; state
// constructions add their closure work).
func (d *DFA) Match(s string) (bool, int64) {
	steps := d.buildSteps
	d.buildSteps = 0
	st := d.start
	if st.match {
		return true, steps + 1
	}
	unanchored := !d.prog.anchoredStart
	for i := 0; i < len(s); {
		c, size := utf8.DecodeRuneInString(s[i:])
		i += size
		steps++
		st = d.step(st, c, unanchored)
		steps += d.buildSteps
		d.buildSteps = 0
		if st.match {
			return true, steps
		}
		if len(st.pcs) == 0 && !unanchored {
			// Dead for further input; an EOL-accept only counts if the
			// input actually ends here.
			return i == len(s) && st.endMatch, steps
		}
	}
	return st.match || st.endMatch, steps
}
