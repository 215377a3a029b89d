package script

import (
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

// run executes src and returns the interpreter for inspection.
func run(t *testing.T, src string) *Interp {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	in := New(Config{})
	if err := in.Run(p); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return in
}

func wantNum(t *testing.T, in *Interp, name string, want float64) {
	t.Helper()
	v, ok := in.Global(name).(float64)
	if !ok {
		t.Fatalf("%s = %T(%v), want number", name, in.Global(name), in.Global(name))
	}
	if math.Abs(v-want) > 1e-9 {
		t.Fatalf("%s = %v, want %v", name, v, want)
	}
}

func wantStr(t *testing.T, in *Interp, name, want string) {
	t.Helper()
	v, ok := in.Global(name).(string)
	if !ok || v != want {
		t.Fatalf("%s = %v(%T), want %q", name, in.Global(name), in.Global(name), want)
	}
}

func TestArithmetic(t *testing.T) {
	in := run(t, `
		var a = 2 + 3 * 4;
		var b = (2 + 3) * 4;
		var c = 10 - 7.5;
		var d = 10 % 3;
		var e = 0 - a;
	`)
	wantNum(t, in, "a", 14)
	wantNum(t, in, "b", 20)
	wantNum(t, in, "c", 2.5)
	wantNum(t, in, "d", 1)
	wantNum(t, in, "e", -14)
}

func TestStringsAndConcat(t *testing.T) {
	in := run(t, `
		var s = "hello" + " " + "world";
		var n = s.length;
		var up = s.toUpperCase();
		var i = s.indexOf("world");
		var sub = s.substring(0, 5);
		var num = "count: " + 42;
	`)
	wantStr(t, in, "s", "hello world")
	wantNum(t, in, "n", 11)
	wantStr(t, in, "up", "HELLO WORLD")
	wantNum(t, in, "i", 6)
	wantStr(t, in, "sub", "hello")
	wantStr(t, in, "num", "count: 42")
}

func TestControlFlow(t *testing.T) {
	in := run(t, `
		var total = 0;
		for (var i = 0; i < 10; i++) {
			if (i % 2 == 0) { total = total + i; } else { total = total + 1; }
		}
		var w = 0;
		var k = 5;
		while (0 < k) { w = w + k; k--; }
		var brk = 0;
		for (var j = 0; j < 100; j++) {
			if (j == 7) { break; }
			if (j % 2 == 0) { brk++; }
		}
	`)
	wantNum(t, in, "total", 2+4+6+8+5) // evens 0..8 sum 20 + five odd 1s
	wantNum(t, in, "w", 15)
	wantNum(t, in, "brk", 4) // j = 0,2,4,6
}

func TestFunctionsAndRecursion(t *testing.T) {
	in := run(t, `
		function fib(n) {
			if (n < 2) { return n; }
			return fib(n-1) + fib(n-2);
		}
		var f10 = fib(10);
		function adder(a, b) { return a + b; }
		var sum = adder(3, 4);
		function noret() { var x = 1; }
		var nothing = noret();
	`)
	wantNum(t, in, "f10", 55)
	wantNum(t, in, "sum", 7)
	if in.Global("nothing") != nil {
		t.Fatal("function without return should yield null")
	}
}

func TestArraysAndObjects(t *testing.T) {
	in := run(t, `
		var a = [3, 1, 2];
		a.push(9);
		var n = a.length;
		var j = a.join("-");
		var second = a[1];
		var o = {name: "pixel", cost: 700, spec: {cores: 8}};
		var cost = o.cost;
		var cores = o.spec.cores;
		var label = o.name + ":" + str(o.cost);
	`)
	wantNum(t, in, "n", 4)
	wantStr(t, in, "j", "3-1-2-9")
	wantNum(t, in, "second", 1)
	wantNum(t, in, "cost", 700)
	wantNum(t, in, "cores", 8)
	wantStr(t, in, "label", "pixel:700")
}

func TestRegexMethods(t *testing.T) {
	in := run(t, `
		var url = "https://cdn.example.com/ads/tracker.js";
		var isAd = url.test("ads|doubleclick|tracker");
		var proto = url.match("^https");
		var clean = url.replace("tracker\.js", "x.js");
		var none = url.match("ftp");
	`)
	if v, _ := in.Global("isAd").(bool); !v {
		t.Fatal("isAd should be true")
	}
	wantStr(t, in, "proto", "https")
	wantStr(t, in, "clean", "https://cdn.example.com/ads/x.js")
	if in.Global("none") != nil {
		t.Fatal("non-match should yield null")
	}
}

func TestCountingHostRecordsCalls(t *testing.T) {
	p := MustParse(`
		var urls = ["http://a.com/x", "http://b.org/ads/y", "http://c.net/z"];
		var hits = 0;
		for (var i = 0; i < urls.length; i++) {
			if (urls[i].test("/ads/")) { hits++; }
		}
	`)
	host := NewCountingHost()
	in := New(Config{Host: host})
	if err := in.Run(p); err != nil {
		t.Fatal(err)
	}
	wantNum(t, in, "hits", 1)
	if len(host.Calls) != 3 {
		t.Fatalf("recorded %d calls, want 3", len(host.Calls))
	}
	for _, c := range host.Calls {
		if c.BTSteps <= 0 || c.PikeSteps <= 0 {
			t.Fatalf("steps not recorded: %+v", c)
		}
	}
	if host.TotalBTSteps() <= 0 || host.TotalPikeSteps() <= 0 || host.Count != 3 {
		t.Fatalf("totals %+v", host.RegexTotals)
	}
}

func TestBuiltins(t *testing.T) {
	in := run(t, `
		var mn = min(3, 5);
		var mn2 = min(5, 3);
		var s = str(3.5);
		var sn = str(null);
	`)
	wantNum(t, in, "mn", 3)
	wantNum(t, in, "mn2", 3)
	wantStr(t, in, "s", "3.5")
	wantStr(t, in, "sn", "null")
}

// TestArraysRenderFixed: an array or object that reaches +, str or join
// renders as a fixed tag, never as its contents or a Go pointer.
func TestArraysRenderFixed(t *testing.T) {
	in := run(t, `
		var a = [1, [2, 3]];
		var o = {k: 1};
		var plus = "a=" + a;
		var s = str(a) + str(o);
		var j = a.join("|");
		var nested = [a, o].join(",");
	`)
	wantStr(t, in, "plus", "a=[array]")
	wantStr(t, in, "s", "[array][object]")
	wantStr(t, in, "j", "1|[array]")
	wantStr(t, in, "nested", "[array],[object]")
}

func TestTruthinessAndLogic(t *testing.T) {
	in := run(t, `
		var a = "" && "unreached";
		var b = "x" && "y";
		var c = 0 && 5;
		var d = null == null;
		var e = null != 0;
		var f = 1 < 2 && 2 >= 2 && "a" == "a";
	`)
	wantStr(t, in, "a", "")
	wantStr(t, in, "b", "y")
	wantNum(t, in, "c", 0)
	if v, _ := in.Global("d").(bool); !v {
		t.Fatal("null == null")
	}
	if v, _ := in.Global("e").(bool); !v {
		t.Fatal("null != 0")
	}
	if v, _ := in.Global("f").(bool); !v {
		t.Fatal("chained comparison")
	}
}

func TestOpsBudget(t *testing.T) {
	p := MustParse(`var i = 0; while (true) { i++; }`)
	in := New(Config{MaxOps: 10000})
	err := in.Run(p)
	if err == nil {
		t.Fatal("infinite loop did not hit budget")
	}
}

func TestCallDepthLimit(t *testing.T) {
	p := MustParse(`function f(n) { return f(n+1); } var x = f(0);`)
	in := New(Config{})
	if err := in.Run(p); err == nil {
		t.Fatal("unbounded recursion did not error")
	}
}

func TestOpsCountingMonotone(t *testing.T) {
	small := run(t, `var t = 0; for (var i = 0; i < 10; i++) { t = t + i; }`)
	large := run(t, `var t = 0; for (var i = 0; i < 1000; i++) { t = t + i; }`)
	if large.Stats().Ops <= small.Stats().Ops {
		t.Fatalf("ops should scale with work: %d vs %d", small.Stats().Ops, large.Stats().Ops)
	}
}

func TestStrBytesAccounting(t *testing.T) {
	in := run(t, `var s = ""; for (var i = 0; i < 50; i++) { s = s + "xxxxxxxxxx"; }`)
	if in.Stats().StrBytes < 500 {
		t.Fatalf("string bytes = %d, want >= 500", in.Stats().StrBytes)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`var;`, `var x = ;`, `if x {}`, `while () {}`, `function () {}`,
		`1 +;`, `var x = [1,;`, `var o = {1: 2};`, `x = `, `"unterminated`,
		`var x = 1 @ 2;`, `5 = x;`, `for (;;;) {}`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestCompileBreakOutsideLoop checks that break must sit inside a loop of
// its own function: a function body starts outside any loop, so break
// cannot end a caller's loop from inside a call. Parse rejects it.
func TestCompileBreakOutsideLoop(t *testing.T) {
	for _, src := range []string{
		`break;`,
		`if (true) { break; }`,
		`function f() { break; } var n = 0; for (var i = 0; i < 3; i++) { n++; f(); }`,
		`while (true) { function g() { break; } }`,
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "outside a loop") {
			t.Errorf("Parse(%q) = %v, want an 'outside a loop' error", src, err)
		}
	}
	if _, err := Parse(`function f() { for (var i = 0; true; i++) { break; } } while (true) { if (1) { break; } break; }`); err != nil {
		t.Errorf("loop-local break rejected: %v", err)
	}
}

func TestRuntimeErrors(t *testing.T) {
	bad := []string{
		`var x = undefined_name;`,
		`var a = [1]; var x = a[5];`,
		`var x = 1; x.push(2);`,
		`var x = "s" - 1;`,
		`var x = noSuchFn();`,
		`var s = "x"; var y = s.noMethod();`,
		`var s = "x"; var y = s.match("(");`,
		// A block's vars are not visible after the block.
		`if (true) { var inner = 1; } var after = inner;`,
		`var n = 0; while (n < 1) { var inner = 1; n++; } var after = inner;`,
		`for (var i = 0; i < 1; i++) { var inner = 1; } var after = inner;`,
		`for (var i = 0; i < 1; i++) { } var after = i;`,
	}
	for _, src := range bad {
		p, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q) failed at parse time: %v", src, err)
			continue
		}
		if err := New(Config{}).Run(p); err == nil {
			t.Errorf("Run(%q) succeeded, want error", src)
		}
	}
}

// TestVMRuntimeErrors runs programs that parse but must fail while running:
// an unbound name, an index out of range, arithmetic on a string, and a
// method called on a number.
func TestVMRuntimeErrors(t *testing.T) {
	bad := []string{
		`var x = missing;`,
		`var a = [1]; var x = a[9];`,
		`var x = "s" - 1;`,
		`var x = 5; var y = x.nope();`,
	}
	for _, src := range bad {
		if err := New(Config{}).Run(MustParse(src)); err == nil {
			t.Errorf("Run(%q) succeeded, want error", src)
		}
	}
}

func TestComments(t *testing.T) {
	in := run(t, `
		// line comment
		var a = 1; // trailing comment
		var b = 2;
	`)
	wantNum(t, in, "a", 1)
	wantNum(t, in, "b", 2)
}

func TestClosuresCaptureScope(t *testing.T) {
	in := run(t, `
		var base = 10;
		function addBase(x) { return x + base; }
		base = 20;
		var r = addBase(5);
	`)
	wantNum(t, in, "r", 25)
}

func TestRealisticWorkload(t *testing.T) {
	// A compressed version of the news-page ad-filter scripts the workload
	// generator emits: URL classification plus list manipulation.
	src := `
	var urls = [];
	for (var i = 0; i < 40; i++) {
		var kind = "static";
		if (i % 3 == 0) { kind = "ads"; }
		urls.push("https://cdn" + i + ".site.com/" + kind + "/asset" + i + ".js");
	}
	var blocked = 0;
	var kept = [];
	for (var i = 0; i < urls.length; i++) {
		if (urls[i].test("/(ads|beacon|track)/")) { blocked++; }
		else { kept.push(urls[i]); }
	}
	var manifest = kept.join(";");
	var totalLen = manifest.length;
	`
	host := NewCountingHost()
	in := New(Config{Host: host})
	if err := in.Run(MustParse(src)); err != nil {
		t.Fatal(err)
	}
	wantNum(t, in, "blocked", 14)
	if len(host.Calls) != 40 {
		t.Fatalf("%d regex calls, want 40", len(host.Calls))
	}
	if in.Stats().Ops < 1000 {
		t.Fatalf("workload too cheap: %d ops", in.Stats().Ops)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse of bad source did not panic")
		}
	}()
	MustParse("var ;")
}

// TestStringIndexing: a string's characters are reached with substring,
// which clamps out-of-range bounds.
func TestStringIndexing(t *testing.T) {
	in := run(t, `var s = "abc"; var c = s.substring(1, 2); var w = s.substring(9, 10);`)
	wantStr(t, in, "c", "b")
	wantStr(t, in, "w", "")
}

func TestDivisionEdgeCases(t *testing.T) {
	in := run(t, `var nan = 0 % 0;`)
	if v := in.Global("nan").(float64); !math.IsNaN(v) {
		t.Fatal("0%0 should be NaN")
	}
}

func TestLongScriptDoesNotBlowStack(t *testing.T) {
	var b strings.Builder
	b.WriteString("var t = 0;\n")
	for i := 0; i < 2000; i++ {
		b.WriteString("t = t + 1;\n")
	}
	in := run(t, b.String())
	wantNum(t, in, "t", 2000)
}

// TestEmptyEndlessForHitsBudget: an endless loop with an empty body still
// charges its condition and post clause, so it ends at the budget.
func TestEmptyEndlessForHitsBudget(t *testing.T) {
	for _, src := range []string{
		`for (var i = 0; true; i = i) {}`,
		`function f() { for (var i = 0; true; i = i) {} } f();`,
		`while (true) {}`,
	} {
		if err := New(Config{MaxOps: 1000}).Run(MustParse(src)); !errors.Is(err, ErrBudget) {
			t.Errorf("%s: err %v, want ErrBudget", src, err)
		}
	}
}

// TestProgramSharedAcrossInterps runs the same Programs on several Interps
// at once: after Parse nothing in a Program is written, so under -race the
// runs must not conflict, and each must match a sequential run.
func TestProgramSharedAcrossInterps(t *testing.T) {
	var progs []*Program
	for _, tc := range coreLanguageCases {
		progs = append(progs, MustParse(tc.src))
	}
	for _, src := range templateScripts {
		progs = append(progs, MustParse(src))
	}
	runAll := func() []Stats {
		var out []Stats
		for _, p := range progs {
			in := New(Config{})
			if err := in.Run(p); err != nil {
				t.Error(err)
			}
			out = append(out, in.Stats())
		}
		return out
	}
	want := runAll()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := runAll(); !slices.Equal(got, want) {
				t.Errorf("concurrent run: stats %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestRunAfterFailedRun: a run that fails inside a call, a + chain and a
// loop frame leaves the Interp's stacks as they were; the next Run on the
// same Interp must behave exactly as on a fresh one.
func TestRunAfterFailedRun(t *testing.T) {
	bad := MustParse(`function f(x) { var y = x; return "a" + y + missing; }
		for (var i = 0; i < 2; i++) { var k = str(i) + f(i) + "z"; }`)
	good := MustParse(`function g(x) { var y = x * 2; return "b" + y; } var t = "";
		for (var i = 0; i < 3; i++) { var k = g(i); t = t + k; }`)
	in := New(Config{})
	if err := in.Run(bad); err == nil || !strings.Contains(err.Error(), "undefined variable") {
		t.Fatalf("bad run: %v, want an undefined variable error", err)
	}
	before := in.Stats()
	if err := in.Run(good); err != nil {
		t.Fatal(err)
	}
	fresh := runCase(t, `function g(x) { var y = x * 2; return "b" + y; } var t = "";
		for (var i = 0; i < 3; i++) { var k = g(i); t = t + k; }`)
	if got := in.Stats().Ops - before.Ops; got != fresh.Stats().Ops {
		t.Errorf("run after a failed run charged %d ops, a fresh run %d", got, fresh.Stats().Ops)
	}
	if got, want := in.Global("t"), fresh.Global("t"); got != want || want != "b0b2b4" {
		t.Errorf("t = %v after a failed run, %v on a fresh Interp, want b0b2b4", got, want)
	}
	if len(in.stack) != 0 || len(in.parts) != 0 || in.nframes != 0 || in.depth != 0 {
		t.Errorf("stacks left after a run: %d args, %d parts, %d frames, depth %d", len(in.stack), len(in.parts), in.nframes, in.depth)
	}
}
