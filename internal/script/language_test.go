package script

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

func arr(elems ...Value) *Array { return &Array{Elems: elems} }

// obj builds an object from alternating key, value arguments.
func obj(kv ...Value) *Object {
	o := &Object{}
	for i := 0; i < len(kv); i += 2 {
		o.keys = append(o.keys, kv[i].(string))
		o.vals = append(o.vals, kv[i+1])
	}
	return o
}

// sameValue compares script values structurally; NaN equals NaN, and
// functions compare by name. Values nested in themselves compare equal
// where their structure repeats in step.
func sameValue(a, b Value) bool { return sameIn(a, b, map[[2]Value]bool{}) }

// sameIn is sameValue; assumed holds the array and object pairs already
// under comparison, taken as equal so a cycle ends the walk.
func sameIn(a, b Value, assumed map[[2]Value]bool) bool {
	switch av := a.(type) {
	case nil:
		return b == nil
	case float64:
		bv, ok := b.(float64)
		return ok && (av == bv || math.IsNaN(av) && math.IsNaN(bv))
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	case *Closure:
		bv, ok := b.(*Closure)
		return ok && av.fn.name == bv.fn.name
	case *builtinFn:
		bv, ok := b.(*builtinFn)
		return ok && av.name == bv.name
	case *Array:
		bv, ok := b.(*Array)
		if !ok || len(av.Elems) != len(bv.Elems) {
			return false
		}
		if assumed[[2]Value{av, bv}] {
			return true
		}
		assumed[[2]Value{av, bv}] = true
		for i := range av.Elems {
			if !sameIn(av.Elems[i], bv.Elems[i], assumed) {
				return false
			}
		}
		return true
	case *Object:
		bv, ok := b.(*Object)
		if !ok || len(av.keys) != len(bv.keys) {
			return false
		}
		if assumed[[2]Value{av, bv}] {
			return true
		}
		assumed[[2]Value{av, bv}] = true
		for i, k := range av.keys {
			if !slices.Contains(bv.keys, k) || !sameIn(av.vals[i], bv.field(k), assumed) {
				return false
			}
		}
		return true
	}
	return false
}

// coreLanguageCases cover each statement and expression family; every
// listed global must end with the given value.
var coreLanguageCases = []struct {
	name    string
	src     string
	globals map[string]Value
	// maxOps, when set, is the run's budget, and the run must end with
	// ErrBudget; globals set before that are still checked.
	maxOps int64
}{
	{"arith", `var a = 2+3*4; var b = (2+3)*4; var c = 10%3; var d = 0 - a; var e = 7 - 2.5;`,
		map[string]Value{"a": 14.0, "b": 20.0, "c": 1.0, "d": -14.0, "e": 4.5}, 0},
	{"logic", `var a = "" && "x"; var b = 1 && 2; var c = 0 == 0; var d = null == null; var e = 3 < 4 && 4 >= 4;`,
		map[string]Value{"a": "", "b": 2.0, "c": true, "d": true, "e": true}, 0},
	{"strings", `var s = "hi " + 42; var n = s.length; var u = s.toUpperCase(); var i = s.indexOf("4"); var sub = s.substring(1,3);`,
		map[string]Value{"s": "hi 42", "n": 5.0, "u": "HI 42", "i": 3.0, "sub": "i "}, 0},
	{"controlflow", `var t = 0; for (var i = 0; i < 20; i++) { if (i % 3 != 0) { if (15 < i) { break; } t = t + i; } } var w = 0; var k = 4; while (0 < k) { w = w + k; k--; }`,
		map[string]Value{"t": 75.0, "w": 10.0, "k": 0.0}, 0},
	{"functions", `function fib(n) { if (n < 2) { return n; } return fib(n-1)+fib(n-2); } var f = fib(12); function g() { var x = 1; } var nil_ = g();`,
		map[string]Value{"f": 144.0, "nil_": nil}, 0},
	{"closures", `var base = 10; function add(x) { return x + base; } base = 20; var r = add(5);`,
		map[string]Value{"r": 25.0}, 0},
	{"arrays", `var a = [5,1,4]; a.push(9); a[1] = 100; var j = a.join("-"); var n = a.length; var last = a[a.length - 1];`,
		map[string]Value{"a": arr(5.0, 100.0, 4.0, 9.0), "j": "5-100-4-9", "n": 4.0, "last": 9.0}, 0},
	{"objects", `var o = {x: 1, s: "v", inner: {n: 2}}; var y = o.x + 2; var n = o.inner.n; var s = o.s; var none = o.missing;`,
		map[string]Value{"o": obj("x", 1.0, "s", "v", "inner", obj("n", 2.0)), "y": 3.0, "n": 2.0, "s": "v", "none": nil}, 0},
	{"compound", `var a = [1,2,3]; a[0] = a[0] + 5; a[1] = a[1] * 3; a[2]++; var o = {n: 10}; var m = o.n - 4; var x = 1; x = x % 2;`,
		map[string]Value{"a": arr(6.0, 6.0, 4.0), "m": 6.0, "x": 1.0}, 0},
	{"regex", `var url = "https://x.com/ads/t.js"; var hit = url.test("/(ads|track)/"); var m = url.match("^https"); var s = url.indexOf("ads"); var rep = url.replace("ads", "ok");`,
		map[string]Value{"hit": true, "m": "https", "s": 14.0, "rep": "https://x.com/ok/t.js"}, 0},
	{"builtins", `var c = min(2, 9); var d = min(9, 2); var f = str(2.5); var g = str(true) + str(null);`,
		map[string]Value{"c": 2.0, "d": 2.0, "f": "2.5", "g": "truenull"}, 0},
	{"implicit-global", `function setIt() { undeclared = 7; } var x = setIt(); var got = undeclared;`,
		map[string]Value{"got": 7.0}, 0},
	{"nested-loops", `var total = 0; for (var i = 0; i < 5; i++) { for (var j = 0; j < 5; j++) { if (j == 3) { break; } total = total + i*j; } }`,
		map[string]Value{"total": 30.0}, 0},
	{"division-edges", `var nan = 0 % 0; var nmod = 5 % 0;`,
		map[string]Value{"nan": math.NaN(), "nmod": math.NaN()}, 0},
	{"url-classifier", `
		var acc = [];
		function classify(u) {
			if (u.test("/(ads|beacon|track)/")) { return "blocked"; }
			if (u.test("img")) { return "image"; }
			return "other";
		}
		for (var i = 0; i < 120; i++) {
			var kind = "static";
			if (i % 4 == 0) { kind = "ads"; }
			if (i % 7 == 0) { kind = "img"; }
			var u = "https://cdn" + (i % 9) + ".site.com/" + kind + "/asset" + i + ".js";
			acc.push(classify(u));
		}
		var blocked = 0; var image = 0; var other = 0;
		for (var i = 0; i < acc.length; i++) {
			if (acc[i] == "blocked") { blocked++; }
			if (acc[i] == "image") { image++; }
			if (acc[i] == "other") { other++; }
		}
		var counts = {blocked: blocked, image: image, other: other};
		var result = str(counts.blocked) + "/" + str(counts.image) + "/" + str(counts.other);`,
		map[string]Value{"result": "25/18/77", "counts": obj("blocked", 25.0, "image", 18.0, "other", 77.0)}, 0},
	// Block scoping: every if, while and for body and every for header is
	// its own scope, whether or not it declares anything.
	{"var-in-if", `var got = 0; if (true) { var inner = 5; got = inner; } else { var other = 1; }`,
		map[string]Value{"got": 5.0, "inner": nil, "other": nil}, 0},
	{"var-in-while", `var n = 0; var got = 0; while (n < 3) { var inner = n * 2; got = got + inner; n++; }`,
		map[string]Value{"got": 6.0, "n": 3.0, "inner": nil}, 0},
	{"var-in-for", `var got = 0; for (var i = 0; i < 4; i++) { var inner = i + 1; got = got + inner; }`,
		map[string]Value{"got": 10.0, "i": nil, "inner": nil}, 0},
	{"closure-per-iteration", `var fs = [];
		for (var i = 0; i < 3; i++) { var k = i * 10; function f() { return k; } fs.push(f); }
		var a = fs[0](); var b = fs[1](); var c = fs[2]();`,
		map[string]Value{"a": 0.0, "b": 10.0, "c": 20.0, "k": nil, "f": nil}, 0},
	{"closure-sees-later-define", `var fs = [];
		for (var i = 0; i < 2; i++) { if (true) { function f() { return late; } fs.push(f); } var late = i + 7; }
		var a = fs[0](); var b = fs[1]();`,
		map[string]Value{"a": 7.0, "b": 8.0}, 0},
	{"shadow-then-assign", `var x = 1; var got = 0;
		if (true) { var x = 2; x = 3; got = x; }
		function g() { var x = 10; x = x + 5; return x; } var fromFn = g();`,
		map[string]Value{"x": 1.0, "got": 3.0, "fromFn": 15.0}, 0},
	{"assign-outer-from-block", `var x = 1; for (var i = 0; i < 3; i++) { x = x * 2; } while (x < 20) { x = x + 5; }`,
		map[string]Value{"x": 23.0}, 0},
	{"implicit-global-from-blocks", `for (var i = 0; i < 3; i++) { if (i == 1) { fromIf = i; } fromLoop = i; }
		function h() { while (true) { fromFn = 9; break; } } h();`,
		map[string]Value{"fromIf": 1.0, "fromLoop": 2.0, "fromFn": 9.0}, 0},
	{"params-and-no-params", `function noArgs() { return 4; } function two(a, b) { return a + b; }
		function missing(a, b) { return b; } var r = noArgs() + two(1, 2); var m = missing(1);`,
		map[string]Value{"r": 7.0, "m": nil}, 0},
	// Scoping edge cases: a name is found only once its var, function or
	// parameter has run, innermost scope first, then the globals.
	{"read-before-var", `var x = "outer"; var seen = "";
		if (true) { seen = x; var x = "inner"; }
		function f() { var before = x; var x = 2; return before + x; } var fromFn = f();`,
		map[string]Value{"x": "outer", "seen": "outer", "fromFn": "outer2"}, 0},
	{"assign-before-var", `var x = 1; var y = 0;
		if (true) { x = 2; var x = 3; y = x; }
		function f() { z = 5; var z = 6; return z; } var r = f();`,
		map[string]Value{"x": 2.0, "y": 3.0, "r": 6.0, "z": 5.0}, 0},
	{"duplicate-params", `function f(a, a) { return a; } var r = f(1, 2); var m = f(1);
		function g(a, b, a) { return a + b; } var s = g(1, 2, 3);`,
		map[string]Value{"r": 2.0, "m": nil, "s": 5.0}, 0},
	{"var-redeclares-param", `function f(a) { var a = null; return a; } function g(a) { var a = a + 1; return a; }
		var r = f(5); var s = g(5);`,
		map[string]Value{"r": nil, "s": 6.0}, 0},
	{"function-and-var-same-name", `function h() { return 1; } var a = h(); var h = 10; var b = h;
		function k() { function v() { return 2; } var first = v(); var v = 3; return first + v; } var kv = k();`,
		map[string]Value{"a": 1.0, "b": 10.0, "kv": 5.0}, 0},
	{"recursion-through-global", `function fact(n) { if (n < 2) { return 1; } return n * fact(n - 1); }
		function isEven(n) { if (n == 0) { return true; } return isOdd(n - 1); }
		function isOdd(n) { if (n == 0) { return false; } return isEven(n - 1); }
		var r = fact(6); var e = isEven(10); var alias = fact; fact = null; var r2 = alias(1);`,
		map[string]Value{"r": 720.0, "e": true, "r2": 1.0, "fact": nil}, 0},
	{"closure-outlives-block", `var get = null;
		if (true) { var hidden = 41; function g() { hidden = hidden + 1; return hidden; } get = g; }
		var a = get(); var b = get();
		function counter() { var n = 0; function inc() { n++; return n; } return inc; }
		var c = counter(); c(); var cv = c(); var other = counter()();`,
		map[string]Value{"a": 42.0, "b": 43.0, "hidden": nil, "cv": 2.0, "other": 1.0}, 0},
	// String indexOf ignores a second argument; the analytics template's
	// m.indexOf("/", 12), and with it every web figure, depends on that.
	{"indexof-ignores-from", `var i = "a/b/c".indexOf("/", 3); var j = "a/b/c".indexOf("c", 0);`,
		map[string]Value{"i": 1.0, "j": 4.0}, 0},
	// A + chain adds numbers until a string appears, then concatenates;
	// a parenthesized right side is its own chain, evaluated first.
	{"concat-numbers-first", `var a = 1 + 2 + "x" + 3;`,
		map[string]Value{"a": "3x3"}, 0},
	{"concat-paren-right", `var b = "x" + (1 + 2);`,
		map[string]Value{"b": "x3"}, 0},
	{"concat-null", `var c = null + "a";`,
		map[string]Value{"c": "nulla"}, 0},
	{"concat-array", `var d = [1] + "a";`,
		map[string]Value{"d": "[array]a"}, 0},
	// The third step's string bytes pass the budget: the chain stops there.
	{"concat-over-budget", `var s = "0123456789"; var t = s + s + s + s + s + s; var after = 1;`,
		map[string]Value{"s": "0123456789", "t": nil, "after": nil}, 60},
	// A function stored in an object is called with its receiver evaluated
	// once: mk runs, and is charged, one time.
	{"object-method-receiver-once", `var n = 0; function g() { return 1; } function mk() { n++; return {f: g}; } var r = mk().f();`,
		map[string]Value{"n": 1.0, "r": 1.0}, 0},
	{"object-missing-key", `var o = {k: 1, k: 2}; var m = o.missing; var k = o.k;`,
		map[string]Value{"o": obj("k", 2.0), "m": nil, "k": 2.0}, 0},
	{"index-step-once", `var n = 0; var a = [1, 2]; function f() { n++; return 0; } a[f()]++; a[1]--;`,
		map[string]Value{"n": 1.0, "a": arr(2.0, 1.0)}, 0},
}

// runCase runs src on a fresh interpreter.
func runCase(t *testing.T, src string) *Interp {
	t.Helper()
	return runBudget(t, src, 0)
}

// runBudget runs src on a fresh interpreter with budget maxOps; when that
// is set, the run must end with ErrBudget.
func runBudget(t *testing.T, src string, maxOps int64) *Interp {
	t.Helper()
	in := New(Config{MaxOps: maxOps})
	err := in.Run(MustParse(src))
	if maxOps > 0 && !errors.Is(err, ErrBudget) {
		t.Fatalf("Run = %v, want ErrBudget", err)
	}
	if maxOps == 0 && err != nil {
		t.Fatalf("Run: %v", err)
	}
	return in
}

func TestCoreLanguage(t *testing.T) {
	for _, tc := range coreLanguageCases {
		t.Run(tc.name, func(t *testing.T) {
			in := runBudget(t, tc.src, tc.maxOps)
			for name, want := range tc.globals {
				if got := in.Global(name); !sameValue(got, want) {
					t.Errorf("global %q = %v, want %v", name, got, want)
				}
			}
		})
	}
}

// TestWorkloadTemplates runs page-workload-shaped scripts (the ad filter,
// analytics and table-sort templates of webpage/scripts.go at fixed
// parameters) and pins each one's result and regex call count: the calls
// are what the simulator prices as regex CPU work.
func TestWorkloadTemplates(t *testing.T) {
	for _, tc := range []struct {
		name   string
		src    string
		result float64
		calls  int
	}{
		{"ad-filter", `var hosts = ["cdn","static","ads"]; var urls = [];
		 for (var i = 0; i < 60; i++) { urls.push("https://" + hosts[i % hosts.length] + i + ".x.com/ads/unit/item-" + i + ".js"); }
		 var blocked = 0; var kept = [];
		 for (var i = 0; i < urls.length; i++) {
		   if (urls[i].test("/(ads|banner)/")) { blocked++; } else { kept.push(urls[i]); }
		 }
		 var manifest = kept.join(";"); var result = blocked;`, 60, 60},
		{"analytics", `var events = [];
		 for (var i = 0; i < 40; i++) { events.push("https://c.x.com/e?v=1&sid=s" + (i*7919%1000) + "&t=pageview&dl=https://s.com/a-" + i); }
		 var sessions = 0;
		 for (var i = 0; i < events.length; i++) { if (events[i].test("sid=s[0-9]+")) { sessions++; } }
		 var result = sessions;`, 40, 40},
		{"table-sort", `var rows = [];
		 for (var i = 0; i < 50; i++) { rows.push({team: "FC T-" + (i%20), pts: (i*17)%97}); }
		 for (var i = 1; i < rows.length; i++) {
		   var key = rows[i]; var j = i - 1;
		   while (j >= 0 && rows[j].pts < key.pts) { rows[j+1] = rows[j]; j--; }
		   rows[j+1] = key;
		 }
		 var result = rows[0].pts;`, 95, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			host := NewCountingHost()
			in := New(Config{Host: host})
			if err := in.Run(MustParse(tc.src)); err != nil {
				t.Fatal(err)
			}
			if got := in.Global("result"); !sameValue(got, tc.result) {
				t.Errorf("result = %v, want %v", got, tc.result)
			}
			if len(host.Calls) != tc.calls {
				t.Errorf("%d regex calls, want %d", len(host.Calls), tc.calls)
			}
		})
	}
}

// wantStats is each case's Stats() as recorded on the map-chain
// interpreter (the scoping cases after params-and-no-params included). A
// case rewritten without a construct the language later dropped was
// re-pinned by running its new source on the interpreter that still had
// the construct, so every pin is a measurement of the old code; the concat
// and object cases were recorded on the tree walker the compiler replaced.
// The exceptions evaluate something once that an older interpreter
// evaluated twice: object-method-receiver-once (the tree walker counted 25
// ops, 8 of them a second run of mk()), and compound and index-step-once,
// whose a[i]++ read and wrote through two evaluations of a and i (compound
// counted 42, index-step-once called f twice). Ops become simulated CPU cycles, so any interpreter change must
// count them exactly as before.
var wantStats = map[string]Stats{
	"arith":                       {Ops: 24, StrBytes: 0},
	"logic":                       {Ops: 23, StrBytes: 0},
	"strings":                     {Ops: 22, StrBytes: 17},
	"controlflow":                 {Ops: 339, StrBytes: 0},
	"functions":                   {Ops: 5121, StrBytes: 0},
	"closures":                    {Ops: 13, StrBytes: 0},
	"arrays":                      {Ops: 31, StrBytes: 6},
	"objects":                     {Ops: 21, StrBytes: 0},
	"compound":                    {Ops: 40, StrBytes: 0},
	"regex":                       {Ops: 26, StrBytes: 46},
	"builtins":                    {Ops: 22, StrBytes: 19},
	"implicit-global":             {Ops: 8, StrBytes: 0},
	"nested-loops":                {Ops: 333, StrBytes: 0},
	"division-edges":              {Ops: 8, StrBytes: 0},
	"url-classifier":              {Ops: 9642, StrBytes: 20052},
	"var-in-if":                   {Ops: 8, StrBytes: 0},
	"var-in-while":                {Ops: 50, StrBytes: 0},
	"var-in-for":                  {Ops: 64, StrBytes: 0},
	"closure-per-iteration":       {Ops: 74, StrBytes: 0},
	"closure-sees-later-define":   {Ops: 56, StrBytes: 0},
	"shadow-then-assign":          {Ops: 24, StrBytes: 0},
	"assign-outer-from-block":     {Ops: 63, StrBytes: 0},
	"implicit-global-from-blocks": {Ops: 53, StrBytes: 0},
	"params-and-no-params":        {Ops: 23, StrBytes: 0},
	"read-before-var":             {Ops: 22, StrBytes: 6},
	"assign-before-var":           {Ops: 22, StrBytes: 0},
	"duplicate-params":            {Ops: 25, StrBytes: 0},
	"var-redeclares-param":        {Ops: 20, StrBytes: 0},
	"function-and-var-same-name":  {Ops: 26, StrBytes: 0},
	"recursion-through-global":    {Ops: 197, StrBytes: 0},
	"closure-outlives-block":      {Ops: 66, StrBytes: 0},
	"indexof-ignores-from":        {Ops: 12, StrBytes: 10},
	"concat-numbers-first":        {Ops: 8, StrBytes: 5},
	"concat-paren-right":          {Ops: 6, StrBytes: 2},
	"concat-null":                 {Ops: 4, StrBytes: 5},
	"concat-array":                {Ops: 5, StrBytes: 8},
	"concat-over-budget":          {Ops: 12, StrBytes: 90},
	"object-method-receiver-once": {Ops: 17, StrBytes: 0},
	"object-missing-key":          {Ops: 10, StrBytes: 0},
	"index-step-once":             {Ops: 23, StrBytes: 0},
}

func TestStatsPinned(t *testing.T) {
	if len(coreLanguageCases) != len(wantStats) {
		t.Fatalf("%d cases, %d pinned stats", len(coreLanguageCases), len(wantStats))
	}
	for _, tc := range coreLanguageCases {
		in := runBudget(t, tc.src, tc.maxOps)
		if got, want := in.Stats(), wantStats[tc.name]; got != want {
			t.Errorf("%s: Stats() = %+v, want %+v", tc.name, got, want)
		}
	}
}

// droppedConstructs lists each construct the language does not have, with
// what happens to a program that uses it: Parse rejects it (err == ""), or
// it parses and Run fails with an error containing err.
var droppedConstructs = []struct {
	name, src, err string
}{
	{"continue", `for (var i = 0; i < 3; i++) { continue; }`, ""},
	{"or", `var a = 0 || 1;`, ""},
	{"not", `var a = !true;`, ""},
	{"negate", `var a = 1; var b = -a;`, ""},
	{"divide", `var a = 6 / 2;`, ""},
	{"less-or-equal", `var a = 1 <= 2;`, ""},
	{"greater", `var a = 2 > 1;`, ""},
	{"string-less", `var a = "a" < "b";`, "needs numbers"},
	{"string-greater-or-equal", `var a = "b" >= "a";`, "needs numbers"},
	{"add-assign", `var x = 1; x += 2;`, ""},
	{"sub-assign", `var x = 1; x -= 2;`, ""},
	{"mul-assign", `var x = 1; x *= 2;`, ""},
	{"div-assign", `var x = 1; x /= 2;`, ""},
	{"mod-assign", `var x = 1; x %= 2;`, ""},
	{"else-if", `if (false) { } else if (true) { }`, ""},
	{"member-assign", `var o = {k: 1}; o.k = 2;`, ""},
	{"object-index", `var o = {k: 1}; var v = o["k"];`, "cannot index"},
	{"object-index-assign", `var o = {k: 1}; o["k"] = 2;`, "cannot index"},
	{"string-index", `var s = "abc"; var c = s[0];`, "cannot index"},
	{"single-quotes", `var s = 'a';`, ""},
	{"block-comment", `/* c */ var a = 1;`, ""},
	{"string-key", `var o = {"k": 1};`, ""},
	{"var-without-init", `var x;`, ""},
	{"for-without-var", `var i = 0; for (i = 0; i < 2; i++) { }`, ""},
	{"for-empty-init", `for (; true; ) { break; }`, ""},
	{"for-empty-cond", `for (var i = 0; ; i++) { break; }`, ""},
	{"for-empty-post", `for (var i = 0; i < 1; ) { }`, ""},
	{"bare-return", `function f() { return; }`, ""},
	{"charAt", `var c = "abc".charAt(0);`, "unknown string method"},
	{"split", `var p = "a,b".split(",");`, "unknown string method"},
	{"toLowerCase", `var l = "AB".toLowerCase();`, "unknown string method"},
	{"startsWith", `var b = "ab".startsWith("a");`, "unknown string method"},
	{"search", `var i = "ab".search("b");`, "unknown string method"},
	{"pop", `var v = [1, 2].pop();`, "unknown array method"},
	{"array-indexOf", `var i = [1, 2].indexOf(2);`, "unknown array method"},
	{"slice", `var s = [1, 2].slice(1, 2);`, "unknown array method"},
	{"parseInt", `var n = parseInt("4");`, "undefined variable"},
	{"abs", `var n = abs(1);`, "undefined variable"},
	{"floor", `var n = floor(1);`, "undefined variable"},
	{"ceil", `var n = ceil(1);`, "undefined variable"},
	{"sqrt", `var n = sqrt(4);`, "undefined variable"},
	{"max", `var n = max(1, 2);`, "undefined variable"},
	{"len", `var n = len("ab");`, "undefined variable"},
	{"keys", `var k = keys({a: 1});`, "undefined variable"},
	{"number-two-dots", `var a = 1.2.3;`, ""},
	{"number-dot-dot", `var a = 1..5;`, ""},
}

func TestDroppedConstructs(t *testing.T) {
	for _, tc := range droppedConstructs {
		p, err := Parse(tc.src)
		switch {
		case tc.err == "":
			if err == nil {
				t.Errorf("%s: Parse(%q) succeeded, want a parse error", tc.name, tc.src)
			}
		case err != nil:
			t.Errorf("%s: Parse(%q): %v, want a run error %q", tc.name, tc.src, err, tc.err)
		default:
			if err := New(Config{}).Run(p); err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: Run(%q) = %v, want an error containing %q", tc.name, tc.src, err, tc.err)
			}
		}
	}
}

// TestUnknownEscapesVerbatim: only \\ and \" are escapes; every other
// backslash pair, \n and \t included, stays in the string as written.
func TestUnknownEscapesVerbatim(t *testing.T) {
	in := runCase(t, `var s = "a\n\t\r\'\/\.b\\\"";`)
	if got, want := in.Global("s"), `a\n\t\r\'\/\.b\"`; got != want {
		t.Errorf("s = %q, want %q", got, want)
	}
}
