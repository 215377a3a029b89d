package script

// Small-value interning. A Value is an interface, so boxing a float64 or a
// bool heap-allocates — and the hot interpreter paths (arithmetic,
// comparisons, loop counters, string indexing) produce almost nothing but
// small integral numbers, booleans, and single-byte strings. Pre-boxing one
// shared copy of each (the narfscript idiom) makes those paths
// allocation-free. Interned values are indistinguishable from freshly boxed
// ones: the language has no identity operator over primitives, and toStr,
// valueEq, and truthy all compare by value.
//
// Negative zero is deliberately folded onto +0: the interpreter never
// consults the sign of a zero (division checks `rn == 0` and takes the sign
// from the numerator; formatting prints both as "0"), so the fold is
// unobservable.

const (
	internMin = -256
	internMax = 1024
)

var (
	internedNums  [internMax - internMin + 1]Value
	internedChars [256]Value // single-byte strings, e.g. charAt results
	valTrue       Value      = true
	valFalse      Value      = false
)

func init() {
	for i := range internedNums {
		internedNums[i] = float64(i + internMin)
	}
	for i := range internedChars {
		internedChars[i] = string(rune(byte(i)))
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

// charv boxes a single-byte string without allocating.
func charv(b byte) Value { return internedChars[b] }

// Literal constructors box the literal's runtime value once at parse time;
// the interpreter then reuses the same box on every evaluation.
func newNumberLit(f float64) *numberLit { return &numberLit{v: f, box: num(f)} }
func newStringLit(s string) *stringLit  { return &stringLit{v: s, box: s} }
func newBoolLit(b bool) *boolLit        { return &boolLit{v: b, box: boolv(b)} }
