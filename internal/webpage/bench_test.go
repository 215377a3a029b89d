package webpage

import "testing"

// BenchmarkProfileScripts profiles every script of Top50(1) without the
// profile cache, so the interpreter's cost can be followed apart from
// caching. The set-up loads every profile first, so the process-wide regex
// memo is warm, as it is in a long-running process. ops/op is the script
// ops of one pass.
func BenchmarkProfileScripts(b *testing.B) {
	var srcs []string
	for _, p := range Top50(1) {
		for i := range p.Resources {
			if r := &p.Resources[i]; r.Profile() != nil {
				srcs = append(srcs, r.ScriptSrc)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ops int64
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			ops += profile(src).Ops
		}
	}
	b.ReportMetric(float64(ops)/float64(b.N), "ops/op")
}
