package script

import (
	"math"
	"testing"
)

func arr(elems ...Value) *Array { return &Array{Elems: elems} }

// obj builds an object from alternating key, value arguments.
func obj(kv ...Value) *Object {
	o := &Object{Fields: map[string]Value{}}
	for i := 0; i < len(kv); i += 2 {
		o.Fields[kv[i].(string)] = kv[i+1]
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
		return ok && av.fn.ref.name == bv.fn.ref.name
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
		if !ok || len(av.Fields) != len(bv.Fields) {
			return false
		}
		if assumed[[2]Value{av, bv}] {
			return true
		}
		assumed[[2]Value{av, bv}] = true
		for k, v := range av.Fields {
			w, ok := bv.Fields[k]
			if !ok || !sameIn(v, w, assumed) {
				return false
			}
		}
		return true
	}
	return false
}

// coreLanguageCases cover each statement and expression family; every
// listed global must end with the given value. A case with inputs pre-sets
// them with SetGlobal, and a case with a prelude runs it as its own Program
// on the same Interp before src.
var coreLanguageCases = []struct {
	name    string
	src     string
	globals map[string]Value
	inputs  map[string]Value
	prelude string
}{
	{"arith", `var a = 2+3*4; var b = (2+3)*4; var c = 10%3; var d = -a; var e = 7/2;`,
		map[string]Value{"a": 14.0, "b": 20.0, "c": 1.0, "d": -14.0, "e": 3.5}, nil, ""},
	{"logic", `var a = "" || "x"; var b = 1 && 2; var c = !0; var d = null == null; var e = 3 < 4 && "a" < "b";`,
		map[string]Value{"a": "x", "b": 2.0, "c": true, "d": true, "e": true}, nil, ""},
	{"strings", `var s = "hi " + 42; var n = s.length; var u = s.toUpperCase(); var i = s.indexOf("4"); var sub = s.substring(1,3);`,
		map[string]Value{"s": "hi 42", "n": 5.0, "u": "HI 42", "i": 3.0, "sub": "i "}, nil, ""},
	{"controlflow", `var t = 0; for (var i = 0; i < 20; i++) { if (i % 3 == 0) { continue; } if (i > 15) { break; } t += i; } var w = 0; var k = 4; while (k > 0) { w += k; k--; }`,
		map[string]Value{"t": 75.0, "w": 10.0, "k": 0.0}, nil, ""},
	{"functions", `function fib(n) { if (n < 2) { return n; } return fib(n-1)+fib(n-2); } var f = fib(12); function g() { var x = 1; } var nil_ = g();`,
		map[string]Value{"f": 144.0, "nil_": nil}, nil, ""},
	{"closures", `var base = 10; function add(x) { return x + base; } base = 20; var r = add(5);`,
		map[string]Value{"r": 25.0}, nil, ""},
	{"arrays", `var a = [5,1,4]; a.push(9); a[1] = 100; var j = a.join("-"); var idx = a.indexOf(4); var sl = a.slice(1,3); var popped = a.pop();`,
		map[string]Value{"a": arr(5.0, 100.0, 4.0), "j": "5-100-4-9", "idx": 2.0, "sl": arr(100.0, 4.0), "popped": 9.0}, nil, ""},
	{"objects", `var o = {x: 1, s: "v"}; o.y = o.x + 2; o["z"] = 3; o.x += 10; var ks = keys(o).join(","); var y = o.y;`,
		map[string]Value{"o": obj("s", "v", "x", 11.0, "y", 3.0, "z", 3.0), "ks": "s,x,y,z", "y": 3.0}, nil, ""},
	{"compound", `var a = [1,2,3]; a[0] += 5; a[1] *= 3; var o = {n: 10}; o.n -= 4; var x = 1; x %= 2;`,
		map[string]Value{"a": arr(6.0, 6.0, 3.0), "o": obj("n", 6.0), "x": 1.0}, nil, ""},
	{"regex", `var url = "https://x.com/ads/t.js"; var hit = url.test("/(ads|track)/"); var m = url.match("^https"); var s = url.search("ads"); var rep = url.replace("ads", "ok");`,
		map[string]Value{"hit": true, "m": "https", "s": 14.0, "rep": "https://x.com/ok/t.js"}, nil, ""},
	{"builtins", `var a = parseInt("42px"); var b = floor(3.9); var c = min(2, 9); var d = max(2, 9); var e = abs(-3); var f = str(2.5); var g = len([1,2]); var h = sqrt(16); var i = ceil(1.1);`,
		map[string]Value{"a": 42.0, "b": 3.0, "c": 2.0, "d": 9.0, "e": 3.0, "f": "2.5", "g": 2.0, "h": 4.0, "i": 2.0}, nil, ""},
	{"implicit-global", `function setIt() { undeclared = 7; } var x = setIt(); var got = undeclared;`,
		map[string]Value{"got": 7.0}, nil, ""},
	{"nested-loops", `var total = 0; for (var i = 0; i < 5; i++) { for (var j = 0; j < 5; j++) { if (j == 3) { break; } total += i*j; } }`,
		map[string]Value{"total": 30.0}, nil, ""},
	{"string-index", `var s = "abc"; var c0 = s[0]; var c2 = s[2];`,
		map[string]Value{"c0": "a", "c2": "c"}, nil, ""},
	{"division-edges", `var inf = 1/0; var nan = 0 % 0;`,
		map[string]Value{"inf": math.Inf(1), "nan": math.NaN()}, nil, ""},
	{"url-classifier", `
		var acc = [];
		function classify(u) {
			if (u.test("/(ads|beacon|track)/")) { return "blocked"; }
			if (u.search("img") >= 0) { return "image"; }
			return "other";
		}
		for (var i = 0; i < 120; i++) {
			var kind = "static";
			if (i % 4 == 0) { kind = "ads"; }
			if (i % 7 == 0) { kind = "img"; }
			var u = "https://cdn" + (i % 9) + ".site.com/" + kind + "/asset" + i + ".js";
			acc.push(classify(u));
		}
		var counts = {blocked: 0, image: 0, other: 0};
		for (var i = 0; i < acc.length; i++) { counts[acc[i]] += 1; }
		var result = str(counts.blocked) + "/" + str(counts.image) + "/" + str(counts.other);`,
		map[string]Value{"result": "25/18/77", "counts": obj("blocked", 25.0, "image", 18.0, "other", 77.0)}, nil, ""},
	// Block scoping: every if, while and for body and every for header is
	// its own scope, whether or not it declares anything.
	{"var-in-if", `var got = 0; if (true) { var inner = 5; got = inner; } else { var other = 1; }`,
		map[string]Value{"got": 5.0, "inner": nil, "other": nil}, nil, ""},
	{"var-in-while", `var n = 0; var got = 0; while (n < 3) { var inner = n * 2; got += inner; n++; }`,
		map[string]Value{"got": 6.0, "n": 3.0, "inner": nil}, nil, ""},
	{"var-in-for", `var got = 0; for (var i = 0; i < 4; i++) { var inner = i + 1; got += inner; }`,
		map[string]Value{"got": 10.0, "i": nil, "inner": nil}, nil, ""},
	{"closure-per-iteration", `var fs = [];
		for (var i = 0; i < 3; i++) { var k = i * 10; function f() { return k; } fs.push(f); }
		var a = fs[0](); var b = fs[1](); var c = fs[2]();`,
		map[string]Value{"a": 0.0, "b": 10.0, "c": 20.0, "k": nil, "f": nil}, nil, ""},
	{"closure-sees-later-define", `var fs = [];
		for (var i = 0; i < 2; i++) { if (true) { function f() { return late; } fs.push(f); } var late = i + 7; }
		var a = fs[0](); var b = fs[1]();`,
		map[string]Value{"a": 7.0, "b": 8.0}, nil, ""},
	{"shadow-then-assign", `var x = 1; var got = 0;
		if (true) { var x = 2; x = 3; got = x; }
		function g() { var x = 10; x += 5; return x; } var fromFn = g();`,
		map[string]Value{"x": 1.0, "got": 3.0, "fromFn": 15.0}, nil, ""},
	{"assign-outer-from-block", `var x = 1; for (var i = 0; i < 3; i++) { x = x * 2; } while (x < 20) { x += 5; }`,
		map[string]Value{"x": 23.0}, nil, ""},
	{"implicit-global-from-blocks", `for (var i = 0; i < 3; i++) { if (i == 1) { fromIf = i; } fromLoop = i; }
		function h() { while (true) { fromFn = 9; break; } } h();`,
		map[string]Value{"fromIf": 1.0, "fromLoop": 2.0, "fromFn": 9.0}, nil, ""},
	{"params-and-no-params", `function noArgs() { return 4; } function two(a, b) { return a + b; }
		function missing(a, b) { return b; } var r = noArgs() + two(1, 2); var m = missing(1);`,
		map[string]Value{"r": 7.0, "m": nil}, nil, ""},
	// Scoping edge cases: a name is found only once its var, function or
	// parameter has run, innermost scope first, then the globals.
	{"read-before-var", `var x = "outer"; var seen = "";
		if (true) { seen = x; var x = "inner"; }
		function f() { var before = x; var x = 2; return before + x; } var fromFn = f();`,
		map[string]Value{"x": "outer", "seen": "outer", "fromFn": "outer2"}, nil, ""},
	{"assign-before-var", `var x = 1; var y = 0;
		if (true) { x = 2; var x = 3; y = x; }
		function f() { z = 5; var z = 6; return z; } var r = f();`,
		map[string]Value{"x": 2.0, "y": 3.0, "r": 6.0, "z": 5.0}, nil, ""},
	{"duplicate-params", `function f(a, a) { return a; } var r = f(1, 2); var m = f(1);
		function g(a, b, a) { return a + b; } var s = g(1, 2, 3);`,
		map[string]Value{"r": 2.0, "m": nil, "s": 5.0}, nil, ""},
	{"var-redeclares-param", `function f(a) { var a; return a; } function g(a) { var a = a + 1; return a; }
		var r = f(5); var s = g(5);`,
		map[string]Value{"r": nil, "s": 6.0}, nil, ""},
	{"function-and-var-same-name", `function h() { return 1; } var a = h(); var h = 10; var b = h;
		function k() { function v() { return 2; } var first = v(); var v = 3; return first + v; } var kv = k();`,
		map[string]Value{"a": 1.0, "b": 10.0, "kv": 5.0}, nil, ""},
	{"recursion-through-global", `function fact(n) { if (n < 2) { return 1; } return n * fact(n - 1); }
		function isEven(n) { if (n == 0) { return true; } return isOdd(n - 1); }
		function isOdd(n) { if (n == 0) { return false; } return isEven(n - 1); }
		var r = fact(6); var e = isEven(10); var alias = fact; fact = null; var r2 = alias(1);`,
		map[string]Value{"r": 720.0, "e": true, "r2": 1.0, "fact": nil}, nil, ""},
	{"closure-outlives-block", `var get = null;
		if (true) { var hidden = 41; function g() { hidden += 1; return hidden; } get = g; }
		var a = get(); var b = get();
		function counter() { var n = 0; function inc() { n++; return n; } return inc; }
		var c = counter(); c(); var cv = c(); var other = counter()();`,
		map[string]Value{"a": 42.0, "b": 43.0, "hidden": nil, "cv": 2.0, "other": 1.0}, nil, ""},
	{"setglobal-input-in-function", `function shout() { return input.toUpperCase() + n; } var out = shout();
		function bump() { n = n + 1; } bump();`,
		map[string]Value{"out": "ABC3", "n": 4.0, "input": "abc"},
		map[string]Value{"input": "abc", "n": 3.0}, ""},
	{"cross-program-closure", `var r = tag("x"); prefix = "q:"; var r2 = tag("y");
		var lateGlobal = 9; var got = useLate(); var c = calls;`,
		map[string]Value{"r": "p:x", "r2": "q:y", "got": 9.0, "c": 2.0},
		nil, `var calls = 0; function tag(s) { calls++; return prefix + s; } var prefix = "p:";
		function useLate() { return lateGlobal; }`},
}

// runCase runs one coreLanguageCases entry on a fresh interpreter.
func runCase(t *testing.T, src, prelude string, inputs map[string]Value) *Interp {
	t.Helper()
	in := New(Config{})
	for name, v := range inputs {
		in.SetGlobal(name, v)
	}
	for _, s := range []string{prelude, src} {
		if s == "" {
			continue
		}
		if err := in.Run(MustParse(s)); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	return in
}

func TestCoreLanguage(t *testing.T) {
	for _, tc := range coreLanguageCases {
		t.Run(tc.name, func(t *testing.T) {
			in := runCase(t, tc.src, tc.prelude, tc.inputs)
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
// interpreter (the scoping cases after params-and-no-params included). Ops
// become simulated CPU cycles, so any interpreter change must count them
// exactly as before.
var wantStats = map[string]Stats{
	"arith":                       {Ops: 23, StrBytes: 0},
	"logic":                       {Ops: 23, StrBytes: 0},
	"strings":                     {Ops: 22, StrBytes: 17},
	"controlflow":                 {Ops: 331, StrBytes: 0},
	"functions":                   {Ops: 5121, StrBytes: 0},
	"closures":                    {Ops: 13, StrBytes: 0},
	"arrays":                      {Ops: 39, StrBytes: 6},
	"objects":                     {Ops: 36, StrBytes: 4},
	"compound":                    {Ops: 32, StrBytes: 0},
	"regex":                       {Ops: 23, StrBytes: 24},
	"builtins":                    {Ops: 41, StrBytes: 3},
	"implicit-global":             {Ops: 8, StrBytes: 0},
	"nested-loops":                {Ops: 318, StrBytes: 0},
	"string-index":                {Ops: 10, StrBytes: 2},
	"division-edges":              {Ops: 8, StrBytes: 0},
	"url-classifier":              {Ops: 8626, StrBytes: 20052},
	"var-in-if":                   {Ops: 8, StrBytes: 0},
	"var-in-while":                {Ops: 47, StrBytes: 0},
	"var-in-for":                  {Ops: 60, StrBytes: 0},
	"closure-per-iteration":       {Ops: 74, StrBytes: 0},
	"closure-sees-later-define":   {Ops: 56, StrBytes: 0},
	"shadow-then-assign":          {Ops: 23, StrBytes: 0},
	"assign-outer-from-block":     {Ops: 60, StrBytes: 0},
	"implicit-global-from-blocks": {Ops: 53, StrBytes: 0},
	"params-and-no-params":        {Ops: 23, StrBytes: 0},
	"read-before-var":             {Ops: 22, StrBytes: 6},
	"assign-before-var":           {Ops: 22, StrBytes: 0},
	"duplicate-params":            {Ops: 25, StrBytes: 0},
	"var-redeclares-param":        {Ops: 19, StrBytes: 0},
	"function-and-var-same-name":  {Ops: 26, StrBytes: 0},
	"recursion-through-global":    {Ops: 197, StrBytes: 0},
	"closure-outlives-block":      {Ops: 64, StrBytes: 0},
	"setglobal-input-in-function": {Ops: 18, StrBytes: 7},
	"cross-program-closure":       {Ops: 39, StrBytes: 6},
}

func TestStatsPinned(t *testing.T) {
	if len(coreLanguageCases) != len(wantStats) {
		t.Fatalf("%d cases, %d pinned stats", len(coreLanguageCases), len(wantStats))
	}
	for _, tc := range coreLanguageCases {
		in := runCase(t, tc.src, tc.prelude, tc.inputs)
		if got, want := in.Stats(), wantStats[tc.name]; got != want {
			t.Errorf("%s: Stats() = %+v, want %+v", tc.name, got, want)
		}
	}
}
