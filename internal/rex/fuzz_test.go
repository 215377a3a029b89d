package rex

import (
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzCompileMatch cross-checks the Pike VM against the standard library on
// the supported syntax subset. Oracles, from weakest to strongest:
//
//   - regexp.Compile (leftmost-first): match presence and the leftmost match
//     start must agree;
//   - regexp.CompilePOSIX (leftmost-longest, like this engine): the full
//     span of the first match must agree.
//
// The seed corpus is drawn from internal/webpage/scripts.go: the ad-filter,
// analytics, lazy-loader, and data-table templates' real patterns and
// representative inputs.
func FuzzCompileMatch(f *testing.F) {
	seeds := [][2]string{
		{`/(ads|adserv|banner)/`, "https://cdn3.example-site.com/ads/unit/item-3.js"},
		{`(doubleclick|adsystem|taboola|outbrain)\.`, "https://stats.doubleclick.net/collect"},
		{`(track|beacon|pixel|metric)s?/`, "https://t7.example-site.com/beacons/v2/img-9.js"},
		{`\.(php|cgi)$`, "https://host.example.com/gateway/index.php"},
		{`^https://static\.`, "https://static.example.com/js/app-4.js"},
		{`w_[0-9]+,h_[0-9]+`, "https://media.example.com/photos/w_1200,h_800/item-7-full.jpg"},
		{`-full\.jpg$`, "https://media.example.com/photos/item-7-full.jpg"},
		{`sid=s[0-9]+`, "https://collect.example.com/e?v=1&sid=s919&t=pageview&cid=31"},
		{`t=pageview`, "https://collect.example.com/e?v=1&sid=s42&t=pageview"},
		{`dl=https://[a-z.]+/[a-z0-9-]+`, "e?v=1&dl=https://site.com/article-12&cid=372"},
		{`^FC [A-Za-z-]+[0-9]+$`, "FC Team-12"},
		{`(a+)+$`, strings.Repeat("a", 20) + "b"},
		{`a*`, "aab"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, pattern, input string) {
		if len(pattern) > 64 || len(input) > 512 {
			t.Skip("oversized")
		}
		std, err := regexp.Compile(pattern)
		if err != nil {
			t.Skip("stdlib rejects the pattern")
		}
		prog, err := Compile(pattern)
		if err != nil {
			t.Skip("outside the supported subset")
		}
		if len(prog.insts) > 2000 {
			t.Skip("counted-repeat blowup")
		}
		if strings.Contains(pattern, "(?") && !isASCII(input) {
			// (?i) folds ASCII only; stdlib folds all of Unicode.
			t.Skip("non-ASCII case folding out of scope")
		}

		got := prog.Run(input)
		wantLoc := std.FindStringIndex(input)
		if got.Matched != (wantLoc != nil) {
			t.Fatalf("match disagreement on %q / %q: rex=%v stdlib=%v",
				pattern, input, got.Matched, wantLoc != nil)
		}
		if got.Matched && got.Start != wantLoc[0] {
			t.Fatalf("leftmost start disagreement on %q / %q: rex=%d stdlib=%d",
				pattern, input, got.Start, wantLoc[0])
		}

		if strings.ContainsAny(pattern, "^$") {
			// CompilePOSIX turns ^ and $ into *line* anchors; this engine
			// (like Perl-mode regexp) anchors to the whole text. The
			// Perl-mode oracle above already covered these.
			return
		}
		posix, err := regexp.CompilePOSIX(pattern)
		if err != nil {
			return // pattern uses Perl-only syntax; boolean oracle was enough
		}
		pLoc := posix.FindStringIndex(input)
		if got.Matched {
			if pLoc == nil || got.Start != pLoc[0] || got.End != pLoc[1] {
				t.Fatalf("leftmost-longest span disagreement on %q / %q: rex=[%d,%d) posix=%v",
					pattern, input, got.Start, got.End, pLoc)
			}
		}
	})
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}
