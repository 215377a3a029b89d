package script

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"mobileqoe/internal/cache"
	"mobileqoe/internal/rex"
)

// templatePatterns are the regexes of internal/webpage's script templates,
// and templateInputs strings those templates build.
var (
	templatePatterns = []string{
		`/(ads|adserv|banner)/`,
		`(doubleclick|adsystem|taboola|outbrain)\.`,
		`(track|beacon|pixel|metric)s?/`,
		`\.(php|cgi)$`,
		`^https://static\.`,
		`sid=s[0-9]+`,
		`t=pageview`,
		`dl=https://[a-z.]+/[a-z0-9-]+`,
		`w_[0-9]+,h_[0-9]+`,
		`-full\.jpg$`,
		`^FC [A-Za-z-]+[0-9]+$`,
	}
	templateInputs = []string{
		"https://ads2.example-site.com/ads/unit/item-2.js",
		"https://static1.example-site.com/story/body/item-1.js",
		"https://track4.example-site.com/beacons/v2/item-4.js",
		"https://api6.example-site.com/metrics/collect/item-6.php",
		"https://collect.example.com/e?v=1&sid=s919&t=pageview&dl=https://site.com/article-7&cid=217",
		"https://media.example.com/photos/w_1200,h_800/item-3-full.jpg",
		"https://media.example.com/photos/w_400,h_266/item-3-mobile.jpg",
		"FC Team-12",
		"FC Team-",
		"",
	}
)

// directCall prices pattern over input on both engines without the memo,
// the way every call was priced before it existed.
func directCall(t testing.TB, pattern, input string, limit int64) (RegexCall, rex.Result) {
	t.Helper()
	p, err := rex.Compile(pattern)
	if err != nil {
		t.Fatalf("compile %q: %v", pattern, err)
	}
	pr := p.Run(input)
	br, _ := p.RunBacktrack(input, limit)
	return RegexCall{Pattern: pattern, InputLen: len(input), Matched: pr.Matched,
		BTSteps: br.Steps, PikeSteps: pr.Steps}, pr
}

// checkParity runs one call through a CountingHost twice (a memo miss or
// hit, then a hit) and compares each result and record with directCall,
// and the host's totals with the two records' sums.
func checkParity(t testing.TB, pattern, input string, limit int64) {
	t.Helper()
	want, wr := directCall(t, pattern, input, limit)
	h := &CountingHost{BacktrackLimit: limit}
	for i := 0; i < 2; i++ {
		matched, start, end, err := h.ExecRegex(pattern, input)
		if err != nil {
			t.Fatalf("%q on %q: %v", pattern, input, err)
		}
		if matched != wr.Matched || (matched && (start != wr.Start || end != wr.End)) {
			t.Fatalf("%q on %q: got (%v, %d, %d), want (%v, %d, %d)",
				pattern, input, matched, start, end, wr.Matched, wr.Start, wr.End)
		}
		if got := h.Calls[i]; got != want {
			t.Fatalf("%q on %q call %d: recorded %+v, want %+v", pattern, input, i, got, want)
		}
	}
	sum := RegexTotals{Count: 2, BTSteps: 2 * want.BTSteps, PikeSteps: 2 * want.PikeSteps,
		InputBytes: 2 * int64(len(input))}
	if h.RegexTotals != sum {
		t.Fatalf("%q on %q: totals %+v, want %+v", pattern, input, h.RegexTotals, sum)
	}
}

func TestRegexMemoParity(t *testing.T) {
	for _, pat := range templatePatterns {
		for _, in := range templateInputs {
			checkParity(t, pat, in, 0)
		}
	}
}

// TestRegexMemoStepLimit prices a pathological pattern at a small
// backtracking budget: the call records the budget the backtracker burned.
func TestRegexMemoStepLimit(t *testing.T) {
	const limit = 1000
	pattern, input := `(a+)+b`, strings.Repeat("a", 40)
	p := rex.MustCompile(pattern)
	br, err := p.RunBacktrack(input, limit)
	if !errors.Is(err, rex.ErrStepLimit) || br.Steps <= limit {
		t.Fatalf("direct run: steps %d, err %v; want the %d-step limit hit", br.Steps, err, limit)
	}
	checkParity(t, pattern, input, limit)
}

func TestRegexMemoKeyedByLimit(t *testing.T) {
	pattern, input := `(a|b)*c`, "abab-limit-key-test"
	for _, limit := range []int64{5, 0} {
		checkParity(t, pattern, input, limit)
	}
	for _, limit := range []int64{5, 0} {
		if _, ok := regexMemo.Get(regexKey{pattern, input, limit}); !ok {
			t.Errorf("no memo entry for limit %d", limit)
		}
	}
	a, _ := regexMemo.Get(regexKey{pattern, input, 5})
	b, _ := regexMemo.Get(regexKey{pattern, input, 0})
	if a.btSteps == b.btSteps {
		t.Errorf("both limits priced at %d backtracking steps", a.btSteps)
	}
}

func TestRegexMemoInvalidPattern(t *testing.T) {
	const pattern, input = `(unclosed`, "invalid-pattern-input"
	h := NewCountingHost()
	for i := 0; i < 3; i++ {
		if _, _, _, err := h.ExecRegex(pattern, input); err == nil {
			t.Fatalf("call %d: no error for %q", i, pattern)
		}
	}
	if len(h.Calls) != 0 || h.RegexTotals != (RegexTotals{}) {
		t.Fatalf("failed calls were recorded: %+v, totals %+v", h.Calls, h.RegexTotals)
	}
	if _, ok := regexMemo.Get(regexKey{pattern, input, 0}); ok {
		t.Fatal("a failed compile left a memo entry")
	}
}

// TestRegexMemoConcurrent profiles the same scripts from 8 goroutines
// against a fresh, small memo, so loads, hits and evictions interleave,
// and checks every goroutine records what a sequential run does.
func TestRegexMemoConcurrent(t *testing.T) {
	var srcs []string
	for _, tc := range coreLanguageCases {
		if tc.name == "regex" || tc.name == "url-classifier" {
			srcs = append(srcs, tc.src)
		}
	}
	srcs = append(srcs, `var n = 0;
		var pats = ["/(ads|adserv|banner)/", "sid=s[0-9]+", "^FC [A-Za-z-]+[0-9]+$"];
		for (var i = 0; i < 90; i++) {
			var u = "https://ads" + (i % 13) + ".site.com/ads/item?sid=s" + (i % 7);
			if (u.test(pats[i % pats.length])) { n++; }
		}`)
	profile := func() [][]RegexCall {
		var out [][]RegexCall
		for _, src := range srcs {
			h := NewCountingHost()
			if err := New(Config{Host: h}).Run(MustParse(src)); err != nil {
				t.Error(err)
			}
			out = append(out, h.Calls)
		}
		return out
	}
	want := profile()
	old := regexMemo
	regexMemo = cache.New[regexKey, regexPrice](cache.Config{MaxEntries: 8})
	defer func() { regexMemo = old }()
	var wg sync.WaitGroup
	got := make([][][]RegexCall, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = profile()
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range want {
			if !slices.Equal(got[g][i], want[i]) {
				t.Fatalf("goroutine %d, script %d: calls differ from the sequential run", g, i)
			}
		}
	}
}

// FuzzCountingHost checks memoized pricing against direct pricing for
// arbitrary (pattern, input) pairs, invalid patterns included.
func FuzzCountingHost(f *testing.F) {
	for _, p := range templatePatterns {
		f.Add(p, templateInputs[0])
	}
	f.Add(`(a*)*b`, strings.Repeat("a", 30))
	f.Add(`(`, "x")
	f.Fuzz(func(t *testing.T, pattern, input string) {
		if len(pattern) > 64 || len(input) > 256 {
			t.Skip()
		}
		const limit = 10_000
		if _, err := rex.Compile(pattern); err != nil {
			h := &CountingHost{BacktrackLimit: limit}
			if _, _, _, err := h.ExecRegex(pattern, input); err == nil || len(h.Calls) != 0 {
				t.Fatalf("invalid %q: err %v, %d calls recorded", pattern, err, len(h.Calls))
			}
			return
		}
		checkParity(t, pattern, input, limit)
	})
}
