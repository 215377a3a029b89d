package webpage

import (
	"strings"
	"sync"
	"testing"

	"mobileqoe/internal/cache"
	"mobileqoe/internal/dsp"
	"mobileqoe/internal/script"
	"mobileqoe/internal/sim"
	"mobileqoe/internal/trace"
	"mobileqoe/internal/units"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate("news-00.example", News, 42)
	b := Generate("news-00.example", News, 42)
	if a.HTMLBody != b.HTMLBody {
		t.Fatal("same seed produced different HTML")
	}
	if len(a.Resources) != len(b.Resources) {
		t.Fatal("same seed produced different resource counts")
	}
	for i := range a.Resources {
		if a.Resources[i].URL != b.Resources[i].URL || a.Resources[i].Size != b.Resources[i].Size {
			t.Fatalf("resource %d differs", i)
		}
	}
	c := Generate("news-00.example", News, 43)
	if a.HTMLBody == c.HTMLBody {
		t.Fatal("different seed produced identical HTML")
	}
}

func TestPageStructure(t *testing.T) {
	for _, cat := range Categories() {
		p := Generate("page."+string(cat), cat, 7)
		if p.HTMLSize <= 0 || len(p.HTMLBody) != int(p.HTMLSize) {
			t.Fatalf("%s: HTML size mismatch", cat)
		}
		if len(p.Segments) == 0 {
			t.Fatalf("%s: no parse segments", cat)
		}
		if p.NumScripts() == 0 {
			t.Fatalf("%s: no scripts", cat)
		}
		pp := paramsFor[cat]
		if n := p.NumScripts(); n < pp.scripts[0] || n > pp.scripts[1] {
			t.Fatalf("%s: %d scripts outside [%d,%d]", cat, n, pp.scripts[0], pp.scripts[1])
		}
		// Every planned resource is present in the page exactly once.
		seen := map[int]bool{}
		for _, r := range p.Resources {
			if seen[r.ID] {
				t.Fatalf("%s: duplicate resource id %d", cat, r.ID)
			}
			seen[r.ID] = true
			if r.Size <= 0 {
				t.Fatalf("%s: resource %s has size %d", cat, r.URL, r.Size)
			}
			if r.InjectedBy < 0 && r.Segment < 0 {
				t.Fatalf("%s: static resource %s has no segment", cat, r.URL)
			}
			if r.InjectedBy >= 0 && r.Segment != -1 {
				t.Fatalf("%s: injected resource %s has segment %d", cat, r.URL, r.Segment)
			}
			if r.Segment >= len(p.Segments) {
				t.Fatalf("%s: resource %s references segment %d of %d", cat, r.URL, r.Segment, len(p.Segments))
			}
		}
	}
}

func TestHTMLReferencesResources(t *testing.T) {
	p := Generate("sports-x.example", Sports, 11)
	for _, r := range p.Resources {
		if r.InjectedBy >= 0 {
			if strings.Contains(p.HTMLBody, r.URL) {
				t.Fatalf("injected resource %s should not be in static HTML", r.URL)
			}
			continue
		}
		if !strings.Contains(p.HTMLBody, r.URL) {
			t.Fatalf("static resource %s missing from HTML", r.URL)
		}
	}
}

func TestScriptsExecuteAndProfile(t *testing.T) {
	p := Generate("news-01.example", News, 3)
	for _, r := range p.Resources {
		prof := r.Profile()
		if r.Type != JS {
			if prof != nil {
				t.Fatalf("%s resource %s has a profile", r.Type, r.URL)
			}
			continue
		}
		if prof == nil {
			t.Fatalf("script %s has no profile", r.URL)
		}
		if prof.Ops <= 0 {
			t.Fatalf("script %s recorded no ops", r.URL)
		}
		if prof.TotalCPUCycles() <= 0 {
			t.Fatalf("script %s has no cost", r.URL)
		}
	}
}

func TestInjectedResourcesReferenceScripts(t *testing.T) {
	p := Generate("shopping-00.example", Shopping, 5)
	scripts := map[int]bool{}
	for _, r := range p.Resources {
		if r.Type == JS {
			scripts[r.ID] = true
		}
	}
	for _, r := range p.Resources {
		if r.InjectedBy >= 0 && !scripts[r.InjectedBy] {
			t.Fatalf("resource %s injected by non-script %d", r.URL, r.InjectedBy)
		}
	}
}

func TestTop50Corpus(t *testing.T) {
	pages := Top50(1)
	if len(pages) != 50 {
		t.Fatalf("Top50 returned %d pages", len(pages))
	}
	counts := map[Category]int{}
	var totalBytes units.ByteSize
	for _, p := range pages {
		counts[p.Category]++
		totalBytes += p.TotalBytes()
	}
	for _, cat := range Categories() {
		if counts[cat] != 10 {
			t.Fatalf("category %s has %d pages, want 10", cat, counts[cat])
		}
	}
	// Paper-era average page weight ~1.5-3.5 MB.
	avg := totalBytes / 50
	if avg < 1*units.MB || avg > 5*units.MB {
		t.Fatalf("average page weight %v outside the paper-era range", avg)
	}
}

func TestSportsTop20(t *testing.T) {
	pages := SportsTop20(1)
	if len(pages) != 20 {
		t.Fatalf("got %d pages", len(pages))
	}
	for _, p := range pages {
		if p.Category != Sports {
			t.Fatalf("page %s is %s", p.Name, p.Category)
		}
	}
}

func TestRegexShareCalibration(t *testing.T) {
	// Corpus-wide: regex ≈20% of scripting cycles (paper §4.2); the sports
	// corpus is regex-heavier (the paper offloads the top sports pages).
	shareFor := func(pages []*Page) float64 {
		var regex, total float64
		for _, p := range pages {
			for _, r := range p.Resources {
				if r.Type != JS {
					continue
				}
				regex += r.Profile().RegexCPUCycles()
				total += r.Profile().TotalCPUCycles()
			}
		}
		return regex / total
	}
	corpus := shareFor(Top50(1))
	sports := shareFor(SportsTop20(1))
	if corpus < 0.10 || corpus > 0.35 {
		t.Fatalf("corpus regex share = %.2f, want ~0.20", corpus)
	}
	if sports < 0.25 || sports > 0.55 {
		t.Fatalf("sports regex share = %.2f, want ~0.40", sports)
	}
	if sports <= corpus {
		t.Fatalf("sports (%.2f) should be regex-heavier than corpus (%.2f)", sports, corpus)
	}
}

func TestScriptingDominatesNewsAndSports(t *testing.T) {
	heavy := Generate("sports-h.example", Sports, 9)
	light := Generate("health-l.example", Health, 9)
	cyc := func(p *Page) float64 {
		var t float64
		for _, r := range p.Resources {
			if r.Type == JS {
				t += r.Profile().TotalCPUCycles()
			}
		}
		return t
	}
	if cyc(heavy) <= cyc(light) {
		t.Fatalf("sports scripting (%.0f) should exceed health (%.0f)", cyc(heavy), cyc(light))
	}
}

func TestOffloadSpeedsUpRegexHeavyScript(t *testing.T) {
	s := sim.New()
	d := dsp.New(s, dsp.Config{})
	p := Generate("sports-o.example", Sports, 13)
	rate := units.Freq(1512e6) // Nexus4 at fmax, IPC 1
	anyFaster := false
	for _, r := range p.Resources {
		if r.Type != JS || r.Profile().RegexCPUCycles() < 0.2*r.Profile().TotalCPUCycles() {
			continue
		}
		prof := r.Profile()
		// Priced as wprof.NodeDuration prices a script node, with and
		// without Offload.
		cpu := units.DurationFor(prof.TotalCPUCycles(), rate)
		off := units.DurationFor(prof.PlainCycles(), rate) + prof.RegexDSPTime(d)
		if off < cpu {
			anyFaster = true
		}
	}
	if !anyFaster {
		t.Fatal("offload never beat the CPU on regex-heavy scripts at 1512 MHz")
	}
}

func TestWorkingSetScalesWithPage(t *testing.T) {
	small := Generate("health-ws.example", Health, 2)
	big := Generate("shopping-ws.example", Shopping, 2)
	if big.TotalBytes() > small.TotalBytes() && big.WorkingSet() <= small.WorkingSet() {
		t.Fatal("working set should grow with page weight")
	}
	if small.WorkingSet() < 600*units.MB {
		t.Fatal("working set below browser baseline")
	}
}

func TestUnknownCategoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown category did not panic")
		}
	}()
	Generate("x", Category("junk"), 1)
}

// TestCorpusIdenticalAcrossEviction pins the cache determinism guarantee:
// a corpus rebuilt after being evicted is identical — page bytes, resource
// plans, and script profiles down to each regex call — to the one
// originally served. The rebuild's profiles are loaded with a one-entry
// profile cache, so it really re-runs its scripts; the regex memo they
// price through is the shared one, whose hits FuzzCountingHost (script)
// checks against direct pricing. Cache state (hit, miss, evict-and-rebuild)
// can never affect simulation input.
func TestCorpusIdenticalAcrossEviction(t *testing.T) {
	oldCorpus, oldProfiles := corpusCache, profileCache
	corpusCache = cache.New[corpusKey, []*Page](cache.Config{MaxEntries: 1})
	defer func() { corpusCache, profileCache = oldCorpus, oldProfiles }()

	a := SportsTop20(7)
	touchProfiles(a) // as originally served, through the shared profile cache
	SportsTop20(8)   // evicts seed 7 from the single-entry cache
	if s := corpusCache.Stats(); s.Evictions == 0 {
		t.Fatalf("expected an eviction with MaxEntries=1, stats %+v", s)
	}
	profileCache = cache.New[string, *Profile](cache.Config{MaxEntries: 1})
	b := SportsTop20(7) // cold rebuild
	if s := corpusCache.Stats(); s.Loads != 3 {
		t.Fatalf("expected 3 cold builds, stats %+v", s)
	}
	before := regexLookups()
	touchProfiles(b)
	if n := regexLookups() - before; n == 0 {
		t.Fatal("the rebuild's scripts priced no regex")
	}

	if len(a) != len(b) {
		t.Fatalf("rebuilt corpus has %d pages, want %d", len(b), len(a))
	}
	for i := range a {
		pa, pb := a[i], b[i]
		if pa.HTMLBody != pb.HTMLBody {
			t.Fatalf("page %d (%s): HTML differs after eviction", i, pa.Name)
		}
		if len(pa.Resources) != len(pb.Resources) {
			t.Fatalf("page %d (%s): resource count differs", i, pa.Name)
		}
		for j := range pa.Resources {
			ra, rb := &pa.Resources[j], &pb.Resources[j]
			if ra.URL != rb.URL || ra.Size != rb.Size || ra.ScriptSrc != rb.ScriptSrc ||
				ra.Blocking != rb.Blocking || ra.Segment != rb.Segment || ra.InjectedBy != rb.InjectedBy {
				t.Fatalf("page %d resource %d differs after eviction", i, j)
			}
			pa, pb := ra.Profile(), rb.Profile()
			if (pa == nil) != (pb == nil) {
				t.Fatalf("page %d resource %d: profile presence differs", i, j)
			}
			if pa != nil {
				if pa == pb {
					t.Fatalf("page %d resource %d: profile served from cache, not re-run", i, j)
				}
				if *pa != *pb {
					t.Fatalf("page %d resource %d: profile differs after eviction", i, j)
				}
			}
		}
	}
}

// TestTop50WorkPinned sums the recorded script work over a Top50 corpus
// and compares it with the sums recorded before regex pricing was
// memoized and block scopes allocated their maps lazily. These counts are
// the simulated work every page load prices, so they must not move.
func TestTop50WorkPinned(t *testing.T) {
	var ops, strBytes, calls, steps int64
	for _, p := range Top50(1) {
		for _, r := range p.Resources {
			prof := r.Profile()
			if prof == nil {
				continue
			}
			ops += prof.Ops
			strBytes += prof.StrBytes
			calls += prof.Regex.Count
			steps += prof.Regex.PikeSteps + prof.Regex.BTSteps
		}
	}
	if ops != 23380920 || strBytes != 67350853 || calls != 231894 || steps != 102678251 {
		t.Fatalf("Top50(1) work: ops %d, str bytes %d, regex calls %d, regex steps %d; want 23380920, 67350853, 231894, 102678251",
			ops, strBytes, calls, steps)
	}
}

// TestProfileCacheChargesFixedBytes: a cached profile costs the same
// whatever number of regex calls its script made.
func TestProfileCacheChargesFixedBytes(t *testing.T) {
	old := profileCache
	profileCache = cache.New[string, *Profile](cache.Config{MaxEntries: 4})
	defer func() { profileCache = old }()
	for i, src := range []string{
		`var n = 0;`,
		`var n = 0; for (var i = 0; i < 5; i++) { if ("ads/x".test("ads")) { n++; } }`,
		`var n = 0; for (var i = 0; i < 500; i++) { if ("ads/x".test("ads")) { n++; } }`,
	} {
		p := profileScript(src)
		if want := []int64{0, 5, 500}[i]; p.Regex.Count != want {
			t.Fatalf("script %d counted %d regex calls, want %d", i, p.Regex.Count, want)
		}
		if got, want := profileCache.Stats().Bytes, int64(i+1)*profileBytes; got != want {
			t.Fatalf("after %d profiles the cache charges %d bytes, want %d", i+1, got, want)
		}
	}
}

// TestProfileTotalsMatchRecordedCalls: every Top50(1) script profile's
// regex totals equal the per-call sums of a recording CountingHost run over
// the same script.
func TestProfileTotalsMatchRecordedCalls(t *testing.T) {
	n := 0
	for _, p := range Top50(1) {
		for i := range p.Resources {
			r := &p.Resources[i]
			prof := r.Profile()
			if prof == nil {
				continue
			}
			host := script.NewCountingHost()
			if err := script.New(script.Config{Host: host}).Run(script.MustParse(r.ScriptSrc)); err != nil {
				t.Fatal(err)
			}
			var sum script.RegexTotals
			for _, c := range host.Calls {
				sum.Count++
				sum.BTSteps += c.BTSteps
				sum.PikeSteps += c.PikeSteps
				sum.InputBytes += int64(c.InputLen)
			}
			if prof.Regex != sum || host.RegexTotals != sum {
				t.Fatalf("%s %s: profile totals %+v, host totals %+v, recorded calls sum to %+v",
					p.Name, r.URL, prof.Regex, host.RegexTotals, sum)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no script profiles in Top50(1)")
	}
}

// touchProfiles loads the profile of every resource of pages.
func touchProfiles(pages []*Page) {
	for _, p := range pages {
		for i := range p.Resources {
			p.Resources[i].Profile()
		}
	}
}

// freshCaches gives the test empty corpus and profile caches, restored
// when it ends, and returns the profile cache's stats.
func freshCaches(t *testing.T) (profiles func() cache.Stats) {
	oldCorpus, oldProfiles := corpusCache, profileCache
	corpusCache = cache.New[corpusKey, []*Page](cache.Config{MaxEntries: 4})
	profileCache = cache.New[string, *Profile](cache.Config{MaxEntries: 1 << 12})
	t.Cleanup(func() { corpusCache, profileCache = oldCorpus, oldProfiles })
	return profileCache.Stats
}

// regexLookups counts the lookups of the process-wide script.regex memo,
// read through cache.Publish like any registered cache.
func regexLookups() float64 {
	m := trace.NewMetrics()
	cache.Publish(m)
	return m.Counter("cache.script.regex.hits").Value() + m.Counter("cache.script.regex.misses").Value()
}

// TestCorpusBuildRunsNoScript: building a corpus profiles nothing and
// prices no regex; a page's first profile use runs exactly its distinct
// scripts, and a second use runs none.
func TestCorpusBuildRunsNoScript(t *testing.T) {
	profiles := freshCaches(t)
	lookups := regexLookups()
	pages := Top50(4242)
	if s, r := profiles(), regexLookups()-lookups; s.Misses != 0 || s.Loads != 0 || r != 0 {
		t.Fatalf("Top50 build profiled scripts: profile cache %+v, %v regex lookups", s, r)
	}

	page := pages[len(pages)/2]
	srcs := map[string]bool{}
	for _, r := range page.Resources {
		if r.Type == JS {
			srcs[r.ScriptSrc] = true
		}
	}
	touchProfiles([]*Page{page})
	if s := profiles(); s.Loads != int64(len(srcs)) || s.Entries != len(srcs) {
		t.Fatalf("touching %s (%d distinct scripts) gave profile cache %+v", page.Name, len(srcs), s)
	}
	if regexLookups() == lookups {
		t.Fatalf("profiling %s priced no regex", page.Name)
	}
	before := profiles()
	touchProfiles([]*Page{page})
	if s := profiles(); s != before {
		t.Fatalf("a second touch reached the profile cache: %+v, then %+v", before, s)
	}
}

// TestProfileConcurrentFirstUse: goroutines racing on one resource's first
// Profile call share one execution and get the same pointer.
func TestProfileConcurrentFirstUse(t *testing.T) {
	profiles := freshCaches(t)
	p := Generate("sports-race.example", Sports, 77)
	var r *Resource
	for i := range p.Resources {
		if p.Resources[i].Type == JS {
			r = &p.Resources[i]
			break
		}
	}
	const n = 8
	got := make([]*Profile, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = r.Profile()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g == nil || g != got[0] {
			t.Fatalf("goroutine %d got profile %p, goroutine 0 got %p", i, g, got[0])
		}
	}
	if s := profiles(); s.Misses != 1 || s.Loads != 1 || s.Hits != 0 {
		t.Fatalf("%d concurrent first uses gave profile cache %+v, want one load", n, s)
	}
}
