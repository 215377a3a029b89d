package script

import (
	"fmt"
	"testing"
)

// runAllocs returns the allocations of one Run of src on an Interp that
// has already run it once, so the Interp's stacks are grown.
func runAllocs(t *testing.T, src string) float64 {
	t.Helper()
	p, in := MustParse(src), New(Config{})
	return testing.AllocsPerRun(20, func() {
		if err := in.Run(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLoopAllocsFlat: a loop whose body declares a var and does
// small-integer arithmetic reuses one frame for every iteration and boxes
// no number, so 1,000 iterations allocate what 10 do.
func TestLoopAllocsFlat(t *testing.T) {
	const src = `var t = 0; for (var i = 0; i < %d; i++) { var k = i %% 7; t = (t + k * 3 - 1) %% 100; }`
	few, many := runAllocs(t, fmt.Sprintf(src, 10)), runAllocs(t, fmt.Sprintf(src, 1000))
	if few != many {
		t.Errorf("allocs per run: %v at 10 iterations, %v at 1,000", few, many)
	}
}

// TestConcatAllocs: a + chain of six numbers and strings builds its string
// once: two allocations, the string and its box, more than a run that
// assigns a variable instead.
func TestConcatAllocs(t *testing.T) {
	const w = `var n = 7; var w = "abcdefghijklmnopqrstuvwxyz"; `
	base := runAllocs(t, w+`var s = w;`)
	chain := runAllocs(t, w+`var s = n + 1 + w + n + w + 42;`)
	if got := chain - base; got != 2 {
		t.Errorf("a 6-part chain allocates %v times, want 2 (%v with the chain, %v without)", got, chain, base)
	}
	in := runCase(t, w+`var s = n + 1 + w + n + w + 42;`)
	if got, want := in.Global("s"), "8abcdefghijklmnopqrstuvwxyz7abcdefghijklmnopqrstuvwxyz42"; got != want {
		t.Errorf("s = %v, want %v", got, want)
	}
}
