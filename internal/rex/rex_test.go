package rex

import (
	"regexp"
	"strings"
	"testing"
)

// matchCases are shared across the Pike VM and backtracker tests.
var matchCases = []struct {
	pattern string
	input   string
	want    bool
}{
	{"abc", "abc", true},
	{"abc", "xabcy", true},
	{"abc", "ab", false},
	{"", "anything", true},
	{"", "", true},
	{"a", "", false},
	{".", "x", true},
	{".", "\n", false},
	{".", "", false},
	{"a*", "", true},
	{"a+", "", false},
	{"a+", "aaa", true},
	{"a?b", "b", true},
	{"a?b", "ab", true},
	{"ab|cd", "cd", true},
	{"ab|cd", "ad", false},
	{"a(b|c)d", "acd", true},
	{"a(?:b|c)d", "abd", true},
	{"a(b|c)d", "aed", false},
	{"[abc]+", "cab", true},
	{"[^abc]", "a", false},
	{"[^abc]", "z", true},
	{"[a-z0-9]+", "abc123", true},
	{"[a-z]+", "ABC", false},
	{`\d+`, "42", true},
	{`\d+`, "forty-two", false},
	{`\D+`, "abc", true},
	{`\w+`, "hello_world9", true},
	{`\W`, "_", false},
	{`\s`, " ", true},
	{`\S`, " ", false},
	{`\.`, ".", true},
	{`\.`, "x", false},
	{"^abc", "abcdef", true},
	{"^abc", "xabc", false},
	{"abc$", "xyzabc", true},
	{"abc$", "abcx", false},
	{"^abc$", "abc", true},
	{"^$", "", true},
	{"^$", "x", false},
	{"a{3}", "aaa", true},
	{"a{3}", "aa", false},
	{"a{2,4}", "aaa", true},
	{"^a{2,4}$", "aaaaa", false},
	{"a{2,}", "aaaaaa", true},
	{"a{2,}", "a", false},
	{"(ab)+", "ababab", true},
	{"(ab)+c", "ababc", true},
	{"h(e|a)llo", "hallo", true},
	{"colou?r", "color", true},
	{"colou?r", "colour", true},
	{"(a|b)*c", "ababbbac", true},
	{"^(http|https)://", "https://x.com", true},
	{"^(http|https)://", "ftp://x.com", false},
	{`[\d-]+`, "555-1212", true},
	{"日本", "日本語", true},
	{"日.語", "日本語", true},
	{"n\tx", "n\tx", true},
	{`a\nb`, "a\nb", true},
}

func TestPikeMatches(t *testing.T) {
	for _, tt := range matchCases {
		p, err := Compile(tt.pattern)
		if err != nil {
			t.Fatalf("Compile(%q): %v", tt.pattern, err)
		}
		if got := p.Run(tt.input).Matched; got != tt.want {
			t.Errorf("pike %q on %q = %v, want %v", tt.pattern, tt.input, got, tt.want)
		}
	}
}

func TestBacktrackMatches(t *testing.T) {
	for _, tt := range matchCases {
		p := MustCompile(tt.pattern)
		r, err := p.RunBacktrack(tt.input, 0)
		if err != nil {
			t.Fatalf("backtrack %q on %q: %v", tt.pattern, tt.input, err)
		}
		if r.Matched != tt.want {
			t.Errorf("backtrack %q on %q = %v, want %v", tt.pattern, tt.input, r.Matched, tt.want)
		}
	}
}

func TestMatchPositionsLeftmostLongest(t *testing.T) {
	tests := []struct {
		pattern, input string
		start, end     int
	}{
		{"a+", "xxaaayy", 2, 5},
		{"ab|abc", "zabcz", 1, 4}, // longest at same start
		{"a", "aaa", 0, 1},
		{"", "xyz", 0, 0},
		{"c$", "abc", 2, 3},
		{`\d+`, "a12b345", 1, 3}, // leftmost beats longer later match
	}
	for _, tt := range tests {
		r := MustCompile(tt.pattern).Run(tt.input)
		if !r.Matched || r.Start != tt.start || r.End != tt.end {
			t.Errorf("%q on %q = (%v,%d,%d), want (true,%d,%d)",
				tt.pattern, tt.input, r.Matched, r.Start, r.End, tt.start, tt.end)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"(", ")", "a)", "(a", "[", "[]", "[z-a]", "*a", "+", "?",
		`\`, `\q`, "a{4,2}", "a{999}", "(?P<x>a)",
	}
	for _, pattern := range bad {
		if _, err := Compile(pattern); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", pattern)
		}
	}
}

func TestLiteralBraceIsLiteral(t *testing.T) {
	// '{' not followed by a valid count is a literal, like in JS.
	p := MustCompile("a{x}")
	if !p.Run("a{x}").Matched {
		t.Fatal("literal brace pattern should match itself")
	}
}

func TestStepsPositiveAndScaleWithInput(t *testing.T) {
	p := MustCompile("[a-z]+@[a-z]+")
	short := p.Run("user@host")
	long := p.Run(strings.Repeat("x", 2000) + "user@host")
	if short.Steps <= 0 {
		t.Fatal("no steps counted")
	}
	if long.Steps <= short.Steps {
		t.Fatalf("steps should grow with input: %d vs %d", short.Steps, long.Steps)
	}
}

func TestAnchoredSkipsScan(t *testing.T) {
	anchored := MustCompile("^zzz")
	free := MustCompile("zzz")
	input := strings.Repeat("a", 5000)
	ra := anchored.Run(input)
	rf := free.Run(input)
	if ra.Matched || rf.Matched {
		t.Fatal("neither should match")
	}
	if ra.Steps*10 > rf.Steps {
		t.Fatalf("anchored scan should be far cheaper: %d vs %d", ra.Steps, rf.Steps)
	}
}

func TestCatastrophicBacktrackingHitsLimit(t *testing.T) {
	// (a+)+$ against a long run of a's followed by b: exponential for the
	// backtracker, linear for the Pike VM. This asymmetry is the paper-level
	// motivation for moving regex evaluation onto a predictable engine.
	p := MustCompile("(a+)+$")
	input := strings.Repeat("a", 28) + "b"
	if _, err := p.RunBacktrack(input, 200000); err != ErrStepLimit {
		t.Fatalf("backtracker err = %v, want ErrStepLimit", err)
	}
	r := p.Run(input)
	if r.Matched {
		t.Fatal("should not match")
	}
	if r.Steps > 50000 {
		t.Fatalf("pike took %d steps, want linear", r.Steps)
	}
}

func TestPikeLinearInInput(t *testing.T) {
	p := MustCompile("(a|b)*c$")
	s1 := strings.Repeat("ab", 500)
	s2 := strings.Repeat("ab", 5000)
	r1, r2 := p.Run(s1), p.Run(s2)
	ratio := float64(r2.Steps) / float64(r1.Steps)
	if ratio > 15 { // 10x input -> ~10x steps
		t.Fatalf("superlinear growth: %d -> %d steps", r1.Steps, r2.Steps)
	}
}

func TestBacktrackLimitZeroUsesDefault(t *testing.T) {
	p := MustCompile("abc")
	if _, err := p.RunBacktrack("zabcz", 0); err != nil {
		t.Fatal(err)
	}
}

func TestNumInst(t *testing.T) {
	if len(MustCompile("abc").insts) != 4 { // 3 chars + match
		t.Fatal("unexpected program size")
	}
	if len(MustCompile("").insts) != 1 {
		t.Fatal("empty pattern should compile to bare match")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile of invalid pattern did not panic")
		}
	}()
	MustCompile("(")
}

func TestStringers(t *testing.T) {
	p := MustCompile("a+")
	if !strings.HasPrefix(p.String(), `rex.Prog("a+", `) {
		t.Fatal("accessors broken")
	}
}

// TestParityWithStdlib cross-checks boolean match results against Go's
// regexp package over the shared syntax subset.
func TestParityWithStdlib(t *testing.T) {
	patterns := []string{
		"abc", "a*", "a+b", "(ab|cd)+", "[a-f]+[0-9]?", `\d+\.\d+`,
		"^start", "end$", "^full$", "a{2,3}b{1,2}", "x(y|z)*w",
		`\w+@\w+`, "[^x]+x", "a.c", "(a|b|c){3}",
	}
	inputs := []string{
		"", "a", "abc", "abcabc", "xyz", "a1b2c3", "3.14", "start here",
		"the end", "full", "aab", "aaabb", "xyzw", "xyyzw", "user@host",
		"nnnx", "axc", "bca", "acb", strings.Repeat("ab", 20),
	}
	for _, pat := range patterns {
		mine := MustCompile(pat)
		std := regexp.MustCompile(pat)
		for _, in := range inputs {
			want := std.MatchString(in)
			if got := mine.Run(in).Matched; got != want {
				t.Errorf("pike parity: %q on %q = %v, stdlib %v", pat, in, got, want)
			}
			r, err := mine.RunBacktrack(in, 0)
			if err != nil {
				t.Errorf("backtrack %q on %q: %v", pat, in, err)
			} else if r.Matched != want {
				t.Errorf("backtrack parity: %q on %q = %v, stdlib %v", pat, in, r.Matched, want)
			}
		}
	}
}

func TestMatchStartParityWithStdlib(t *testing.T) {
	patterns := []string{"abc", "a+", `\d+`, "[a-c]x", "q|rs"}
	inputs := []string{"zzabcz", "baaac", "no12no345", "cxq", "qrs", "xyz"}
	for _, pat := range patterns {
		mine := MustCompile(pat)
		std := regexp.MustCompile(pat)
		for _, in := range inputs {
			loc := std.FindStringIndex(in)
			r := mine.Run(in)
			if (loc != nil) != r.Matched {
				t.Errorf("%q on %q: matched=%v stdlib=%v", pat, in, r.Matched, loc != nil)
				continue
			}
			if loc != nil && loc[0] != r.Start {
				t.Errorf("%q on %q: start=%d stdlib=%d", pat, in, r.Start, loc[0])
			}
		}
	}
}

func TestCaseInsensitiveFlag(t *testing.T) {
	tests := []struct {
		pattern, input string
		want           bool
	}{
		{"(?i)abc", "ABC", true},
		{"(?i)abc", "aBc", true},
		{"(?i)abc", "abd", false},
		{"(?i)[a-f]+", "DEAD", true},
		{"(?i)hello world", "Hello World", true},
		{"(?i)(GET|POST) /", "get /index", true},
		{"(?i)x", "y", false},
		{"(?i)[0-9]+", "123", true}, // folding must not break digits
	}
	for _, tt := range tests {
		p := MustCompile(tt.pattern)
		if got := p.Run(tt.input).Matched; got != tt.want {
			t.Errorf("%q on %q = %v, want %v", tt.pattern, tt.input, got, tt.want)
		}
		// Parity with stdlib.
		if std := regexp.MustCompile(tt.pattern).MatchString(tt.input); std != tt.want {
			t.Fatalf("test expectation differs from stdlib for %q on %q", tt.pattern, tt.input)
		}
	}
	// Shared escape classes must not be corrupted by folding.
	if !MustCompile(`\w+`).Run("under_score").Matched {
		t.Fatal("\\w corrupted after (?i) compilation")
	}
}
