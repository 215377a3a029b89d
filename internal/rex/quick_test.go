package rex

import (
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"mobileqoe/internal/stats"
)

// genPattern builds a random pattern from a subset that is valid for both
// this engine and Go's regexp, and safe for the backtracker (quantifiers are
// never applied to quantified subexpressions, avoiding nested-star blowups).
func genPattern(r *stats.RNG, depth int) string {
	if depth <= 0 {
		return genAtom(r)
	}
	switch r.Intn(6) {
	case 0: // concat
		return genPattern(r, depth-1) + genPattern(r, depth-1)
	case 1: // alternation
		return "(" + genPattern(r, depth-1) + "|" + genPattern(r, depth-1) + ")"
	case 2: // star over an atom
		return genAtom(r) + "*"
	case 3: // plus over an atom
		return genAtom(r) + "+"
	case 4: // optional
		return genAtom(r) + "?"
	default:
		return genAtom(r)
	}
}

func genAtom(r *stats.RNG) string {
	switch r.Intn(5) {
	case 0:
		return string(rune('a' + r.Intn(3)))
	case 1:
		return "[ab]"
	case 2:
		return "[^c]"
	case 3:
		return "."
	default:
		return string(rune('a'+r.Intn(3))) + string(rune('a'+r.Intn(3)))
	}
}

func genInput(r *stats.RNG) string {
	n := r.Intn(12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + r.Intn(4)))
	}
	return b.String()
}

// Property: for random safe patterns, the Pike VM, the backtracker, and
// Go's stdlib regexp all agree on whether a match exists.
func TestEngineAgreementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		pat := genPattern(r, 3)
		std, err := regexp.Compile(pat)
		if err != nil {
			return true // generator produced something stdlib rejects; skip
		}
		mine, err := Compile(pat)
		if err != nil {
			t.Logf("our engine rejected %q: %v", pat, err)
			return false
		}
		for i := 0; i < 8; i++ {
			in := genInput(r)
			want := std.MatchString(in)
			if mine.Run(in).Matched != want {
				t.Logf("pike disagrees on %q / %q (stdlib=%v)", pat, in, want)
				return false
			}
			br, err := mine.RunBacktrack(in, 5_000_000)
			if err != nil {
				continue // step limit; acceptable for the baseline engine
			}
			if br.Matched != want {
				t.Logf("backtracker disagrees on %q / %q (stdlib=%v)", pat, in, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: match spans are always within bounds and well ordered.
func TestSpanSanityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		pat := genPattern(r, 3)
		mine, err := Compile(pat)
		if err != nil {
			return true
		}
		for i := 0; i < 4; i++ {
			in := genInput(r)
			res := mine.Run(in)
			if res.Steps <= 0 {
				return false
			}
			if res.Matched && (res.Start < 0 || res.End < res.Start || res.End > len(in)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
