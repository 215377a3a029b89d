package script

import (
	"fmt"
	"testing"
)

// templateScripts are internal/webpage's five script templates
// (scripts.go) at small fixed parameters.
var templateScripts = []string{
	// ad filter
	`var hosts = ["cdn", "static", "ads", "media", "track", "img", "api"];
var paths = ["ads/unit", "story/body", "banner/top", "beacons/v2", "img/hero", "metrics/collect", "js/app"];
var urls = [];
for (var i = 0; i < 12; i++) {
	var h = hosts[i % hosts.length];
	var p = paths[(i * 3) % paths.length];
	urls.push("https://" + h + i + ".example-site.com/" + p + "/item-" + i + ".js");
}
var patterns = ["/(ads|adserv|banner)/", "(doubleclick|adsystem|taboola|outbrain)\\."];
var blocked = 0;
var kept = [];
for (var round = 0; round < 2; round++) {
	kept = [];
	for (var i = 0; i < urls.length; i++) {
		var hit = false;
		for (var j = 0; j < patterns.length; j++) {
			if (urls[i].test(patterns[j])) { hit = true; break; }
		}
		if (hit) { blocked++; } else { kept.push(urls[i]); }
	}
}
var manifest = kept.join(";");
var result = blocked;`,
	// analytics
	`var events = [];
for (var i = 0; i < 8; i++) {
	var sid = "s" + (i * 7919 % 1000);
	events.push("https://collect.example.com/e?v=1&sid=" + sid +
		"&t=pageview&dl=https://site.com/article-" + i + "&cid=" + (i * 31));
}
var sessions = 0;
var views = 0;
for (var i = 0; i < events.length; i++) {
	var e = events[i];
	if (e.test("sid=s[0-9]+")) { sessions++; }
	if (e.test("t=pageview")) { views++; }
	var m = e.match("dl=https://[a-z.]+/[a-z0-9-]+");
	if (m != null) {
		var path = m.substring(m.indexOf("/", 12), m.length);
	}
}
var batch = "";
for (var i = 0; i < events.length; i++) {
	if (i % 10 == 0) { batch = ""; }
	batch = batch + events[i].substring(0, 40) + "|";
}
var result = sessions + views;`,
	// lazy loader
	`var imgs = [];
for (var i = 0; i < 6; i++) {
	imgs.push("https://media.example.com/photos/w_1200,h_800/item-" + i + "-full.jpg");
}
var rewritten = [];
var matched = 0;
for (var i = 0; i < imgs.length; i++) {
	var u = imgs[i];
	if (u.test("w_[0-9]+,h_[0-9]+")) { matched++; }
	u = u.replace("w_[0-9]+,h_[0-9]+", "w_400,h_266");
	u = u.replace("-full\\.jpg$", "-mobile.jpg");
	rewritten.push(u);
}
var srcset = rewritten.join(", ");
var result = matched;`,
	// DOM builder
	`function renderItem(item) {
	return "<li class='" + item.cls + "' data-id='" + item.id + "'>" +
		item.title.toUpperCase() + "</li>";
}
var items = [];
for (var i = 0; i < 9; i++) {
	items.push({id: i, cls: "item c" + (i % 7), title: "headline number " + i});
}
var html = "";
var visible = 0;
for (var i = 0; i < items.length; i++) {
	if (items[i].id % 3 != 0) {
		html = html + renderItem(items[i]);
		visible++;
	}
}
var lengths = [];
for (var i = 0; i < items.length; i++) {
	lengths.push(items[i].title.length);
}
var result = visible + html.length;`,
	// data table
	`var rows = [];
for (var i = 0; i < 8; i++) {
	rows.push({team: "FC Team-" + (i % 30), pts: (i * 17) % 97, gd: (i * 13) % 41 - 20});
}
for (var i = 1; i < rows.length; i++) {
	var key = rows[i];
	var j = i - 1;
	while (j >= 0 && rows[j].pts < key.pts) {
		rows[j + 1] = rows[j];
		j--;
	}
	rows[j + 1] = key;
}
var tidy = 0;
for (var i = 0; i < rows.length; i++) {
	if (rows[i].team.test("^FC [A-Za-z-]+[0-9]+$")) { tidy++; }
}
var top = "";
for (var i = 0; i < min(10, rows.length); i++) {
	top = top + rows[i].team + ":" + str(rows[i].pts) + ";";
}
var result = rows[0].pts + tidy;`,
}

// TestTemplateScriptsRun keeps the fuzz seeds valid programs.
func TestTemplateScriptsRun(t *testing.T) {
	for i, src := range templateScripts {
		in := runCase(t, src)
		if _, ok := in.Global("result").(float64); !ok {
			t.Errorf("template %d: result = %v", i, in.Global("result"))
		}
	}
}

// fuzzInput is the first line of every fuzzed program, so a program can
// read a template-shaped string from the global input.
const fuzzInput = `var input = "https://ads2.example-site.com/ads/unit/item-2.js";` + "\n"

// FuzzScript runs a prelude and a program, joined into one Program, on two
// fresh interpreters with a small budget. Whenever the joined source
// parses, Run must not panic (a bad slot, depth or frame would), and the
// two runs must agree on errors, Stats and every global the program names.
func FuzzScript(f *testing.F) {
	for _, tc := range coreLanguageCases {
		f.Add("", tc.src)
	}
	for _, src := range templateScripts {
		f.Add("", src)
	}
	for _, tc := range droppedConstructs {
		f.Add("", tc.src)
	}
	f.Fuzz(func(t *testing.T, prelude, src string) {
		if len(prelude)+len(src) > 4096 {
			t.Skip()
		}
		p, err := Parse(fuzzInput + prelude + "\n" + src)
		if err != nil {
			return
		}
		a, errA := fuzzRun(p)
		b, errB := fuzzRun(p)
		if fmt.Sprint(errA) != fmt.Sprint(errB) {
			t.Fatalf("errors differ: %v vs %v", errA, errB)
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("stats differ: %+v vs %+v", a.Stats(), b.Stats())
		}
		for _, name := range p.globals {
			if ga, gb := a.Global(name), b.Global(name); !sameValue(ga, gb) {
				t.Fatalf("global %q: %v vs %v", name, ga, gb)
			}
		}
	})
}

// fuzzRun runs p on a fresh Interp. The small backtracking limit keeps
// each regex call cheap.
func fuzzRun(p *Program) (*Interp, error) {
	in := New(Config{MaxOps: 20_000, Host: &CountingHost{BacktrackLimit: 10_000}})
	return in, in.Run(p)
}
