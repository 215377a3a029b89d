package script

import "mobileqoe/internal/cache"

// programCache memoizes parsed programs by source text. Template-generated
// page scripts differ only in a handful of integer parameters, so distinct
// seeds and trials frequently produce byte-identical source; parsing each
// distinct program once and sharing the immutable *Program makes corpus
// builds for later seeds substantially cheaper. Parsing is a pure function
// of the source, so cache state can never change what a caller receives.
//
// Programs are read-only after parsing — the interpreter only walks them —
// so sharing one *Program across concurrent executions is safe.
var programCache = cache.New[string, *Program](cache.Config{
	Name:       "script.programs",
	MaxEntries: 4096,
	MaxBytes:   64 << 20,
})

// ParseShared parses src through the process-wide bounded program cache.
// Concurrent calls for the same source parse it exactly once. The returned
// Program is shared and must not be mutated.
func ParseShared(src string) (*Program, error) {
	return programCache.GetOrLoad(src, func() (*Program, int64, error) {
		p, err := Parse(src)
		if err != nil {
			return nil, 0, err
		}
		// The AST's footprint scales with the source; 4x source length is a
		// deliberate overestimate so the byte cap errs toward evicting.
		return p, int64(4 * len(src)), nil
	})
}

// MustParseShared is ParseShared for known-good sources.
func MustParseShared(src string) *Program {
	p, err := ParseShared(src)
	if err != nil {
		panic(err)
	}
	return p
}
