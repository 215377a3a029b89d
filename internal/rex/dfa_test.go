package rex

import (
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"mobileqoe/internal/stats"
)

func TestDFAMatchesSharedCases(t *testing.T) {
	for _, tt := range matchCases {
		d := MustCompile(tt.pattern).NewDFA()
		got, steps := d.Match(tt.input)
		if got != tt.want {
			t.Errorf("dfa %q on %q = %v, want %v", tt.pattern, tt.input, got, tt.want)
		}
		if steps <= 0 {
			t.Errorf("dfa %q on %q counted no steps", tt.pattern, tt.input)
		}
	}
}

func TestDFAReuseAcrossInputs(t *testing.T) {
	d := MustCompile(`(ads|track|beacon)s?/`).NewDFA()
	inputs := []string{
		"https://x.com/ads/unit.js",
		"https://x.com/static/app.js",
		"https://x.com/beacons/v2",
		"https://x.com/track/pixel",
	}
	want := []bool{true, false, true, true}
	var first, later int64
	for i, in := range inputs {
		got, steps := d.Match(in)
		if got != want[i] {
			t.Fatalf("dfa on %q = %v, want %v", in, got, want[i])
		}
		if i == 0 {
			first = steps
		} else {
			later = steps
		}
	}
	// Warm runs avoid most state construction: the cached scan on a
	// same-length input should be cheaper than the cold one.
	if later >= first {
		t.Logf("warm steps %d vs cold %d (cache growth across inputs is allowed)", later, first)
	}
	if len(d.states) == 0 {
		t.Fatal("no states memoized")
	}
}

func TestDFAStepsNearOnePerRuneWhenWarm(t *testing.T) {
	d := MustCompile("needle").NewDFA()
	input := strings.Repeat("hay ", 2000)
	d.Match(input) // warm the transition cache
	_, steps := d.Match(input)
	runes := int64(len(input))
	if steps > runes+runes/10+50 {
		t.Fatalf("warm DFA took %d steps for %d runes, want ~1/rune", steps, runes)
	}
	// The Pike VM pays several steps per rune on the same scan.
	pr := MustCompile("needle").Run(input)
	if pr.Steps <= steps {
		t.Fatalf("pike (%d) should cost more than a warm DFA (%d)", pr.Steps, steps)
	}
}

func TestDFALinearOnPathological(t *testing.T) {
	// The backtracking killer is linear for the DFA too.
	d := MustCompile("(a+)+$").NewDFA()
	got, steps := d.Match(strings.Repeat("a", 30) + "b")
	if got {
		t.Fatal("should not match")
	}
	if steps > 5000 {
		t.Fatalf("DFA took %d steps, want linear", steps)
	}
}

func TestDFAStateBound(t *testing.T) {
	// A pattern with many counted states must not blow the memo table.
	d := MustCompile("[ab]{1,60}c").NewDFA()
	r := stats.NewRNG(3)
	for i := 0; i < 200; i++ {
		var b strings.Builder
		for j := 0; j < 80; j++ {
			b.WriteByte(byte('a' + r.Intn(3)))
		}
		d.Match(b.String())
	}
	if len(d.states) > maxDFAStates {
		t.Fatalf("state table exceeded bound: %d", len(d.states))
	}
}

// Property: the DFA agrees with the Pike VM (and hence stdlib) on the safe
// generated subset.
func TestDFAAgreementProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		pat := genPattern(r, 3)
		std, err := regexp.Compile(pat)
		if err != nil {
			return true
		}
		mine, err := Compile(pat)
		if err != nil {
			return false
		}
		d := mine.NewDFA()
		for i := 0; i < 6; i++ {
			in := genInput(r)
			want := std.MatchString(in)
			if got, _ := d.Match(in); got != want {
				t.Logf("dfa disagrees on %q / %q (stdlib=%v)", pat, in, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDFACaseFolding(t *testing.T) {
	d := MustCompile("(?i)doubleclick").NewDFA()
	if got, _ := d.Match("ad.DoubleClick.net"); !got {
		t.Fatal("case-folded DFA should match")
	}
}
