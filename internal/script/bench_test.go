package script

import "testing"

// Interpreter micro-benchmarks on a workload-shaped program.

const benchSrc = `
var urls = [];
for (var i = 0; i < 100; i++) {
	urls.push("https://cdn" + (i % 7) + ".site.com/ads/item-" + i + ".js");
}
var blocked = 0;
for (var i = 0; i < urls.length; i++) {
	if (urls[i].indexOf("/ads/") >= 0) { blocked++; }
}
var result = blocked;
`

// BenchmarkTreeWalker runs the compiled program on a fresh Interp. It
// keeps the name it had when the interpreter walked the tree, so archives
// from before and after the compiler compare.
func BenchmarkTreeWalker(b *testing.B) {
	prog := MustParse(benchSrc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := New(Config{})
		if err := in.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchSrc); err != nil {
			b.Fatal(err)
		}
	}
}
