package rex

import (
	"strings"
	"testing"
)

// Engine micro-benchmarks: the three execution strategies on the workload's
// characteristic patterns. Run with `go test -bench=. ./internal/rex`.

var benchPattern = `(ads|adserv|banner|track|beacon)s?/`
var benchInput = strings.Repeat("https://cdn7.example-site.com/js/app-", 20) +
	"https://cdn3.example-site.com/ads/unit/item-3.js"

func BenchmarkPikeVM(b *testing.B) {
	p := MustCompile(benchPattern)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !p.Run(benchInput).Matched {
			b.Fatal("no match")
		}
	}
}

func BenchmarkBacktracker(b *testing.B) {
	p := MustCompile(benchPattern)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := p.RunBacktrack(benchInput, 0)
		if err != nil || !r.Matched {
			b.Fatal("no match")
		}
	}
}

func BenchmarkLazyDFA(b *testing.B) {
	p := MustCompile(benchPattern)
	d := p.NewDFA()
	d.Match(benchInput) // warm the transition table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, _ := d.Match(benchInput)
		if !ok {
			b.Fatal("no match")
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(benchPattern); err != nil {
			b.Fatal(err)
		}
	}
}
