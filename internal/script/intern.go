package script

// Small-value interning. A Value is an interface, so boxing a float64 or a
// bool heap-allocates — and the hot interpreter paths (arithmetic,
// comparisons, loop counters) produce almost nothing but small integral
// numbers and booleans. Pre-boxing one shared copy of each (the narfscript
// idiom) makes those paths allocation-free. Interned values are
// indistinguishable from freshly boxed ones: the language has no identity
// operator over primitives, and toStr, valueEq, and truthy all compare by
// value.
//
// Negative zero is deliberately folded onto +0: the interpreter never
// consults the sign of a zero (formatting prints both as "0"), so the fold
// is unobservable.

const (
	internMin = -256
	internMax = 1024
)

var (
	internedNums [internMax - internMin + 1]Value
	valTrue      Value = true
	valFalse     Value = false
)

func init() {
	for i := range internedNums {
		internedNums[i] = float64(i + internMin)
	}
}

// num boxes a float64, reusing the interned box for small integers. NaN,
// infinities, and huge values fail the round-trip guard and box normally.
func num(f float64) Value {
	if i := int(f); float64(i) == f && i >= internMin && i <= internMax {
		return internedNums[i-internMin]
	}
	return f
}

// boolv boxes a bool without allocating.
func boolv(b bool) Value {
	if b {
		return valTrue
	}
	return valFalse
}

// newNumberLit boxes a number literal's value once at parse time; the
// interpreter then reuses the same box on every evaluation.
func newNumberLit(f float64) *literal { return &literal{box: num(f)} }
