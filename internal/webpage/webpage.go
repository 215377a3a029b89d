// Package webpage generates the synthetic stand-in for the paper's Alexa
// top-50 workload: deterministic web pages with real HTML markup, real
// JavaScript-like programs (executed by internal/script), stylesheets, and
// images, spread across several origins.
//
// Pages come in the paper's five categories — news, sports, business,
// health, shopping — with news and sports carrying the heaviest scripting
// and the most regular-expression work (URL classification, ad filtering,
// feed munging), mirroring the paper's observation that those categories
// slow down the most (~6×) at low clocks and spend ≈20% of scripting time
// (≈40% for the sports pages used in §4.2) in regex evaluation.
//
// Every generated script is executed against the recording host the first
// time its resource's Profile is asked for; the resulting Profile
// (interpreter ops, string bytes, and per-regex-call step counts on both
// engines) is then kept with the resource. So a corpus build runs no script,
// and a run profiles only the pages it loads. The browser and the offload
// study price that profile on whatever hardware configuration they
// simulate, so a page costs the same *work* everywhere and different *time*
// per device — exactly the paper's experimental design.
package webpage

import (
	"fmt"
	"strings"
	"sync"
	"unsafe"

	"mobileqoe/internal/cache"
	"mobileqoe/internal/script"
	"mobileqoe/internal/stats"
	"mobileqoe/internal/units"
)

// Category is a page vertical from the paper's category experiment.
type Category string

// The five categories studied.
const (
	News     Category = "news"
	Sports   Category = "sports"
	Business Category = "business"
	Health   Category = "health"
	Shopping Category = "shopping"
)

// Categories returns all categories in presentation order.
func Categories() []Category {
	return []Category{News, Sports, Business, Health, Shopping}
}

// ResourceType classifies a subresource.
type ResourceType string

// Resource types.
const (
	CSS   ResourceType = "css"
	JS    ResourceType = "js"
	Image ResourceType = "img"
)

// Resource is one object on a page.
type Resource struct {
	ID       int
	URL      string
	Domain   string
	Type     ResourceType
	Size     units.ByteSize
	Blocking bool // synchronous script: parser stalls until fetched+executed
	// Segment is the HTML parse segment that discovers this resource
	// (static discovery); -1 when injected by a script.
	Segment int
	// InjectedBy is the resource ID of the script that dynamically inserts
	// this resource, or -1 for statically referenced ones.
	InjectedBy int
	// ScriptSrc holds the program source for JS resources.
	ScriptSrc string
	// lazy is the JS resource's profile cell, shared by every copy of
	// the Resource; nil for other types.
	lazy *lazyProfile
}

// Profile returns a JS resource's executed cost profile, running its
// script on the first call; it returns nil for other resource types.
// Concurrent callers share one execution and get the same pointer.
func (r *Resource) Profile() *Profile {
	if r.lazy == nil {
		return nil
	}
	return r.lazy.get()
}

// lazyProfile holds a script's source until its profile is first needed.
// It is reached through a pointer, so copies of a Resource share one cell
// and compare equal under reflect.DeepEqual.
type lazyProfile struct {
	once sync.Once
	src  string
	p    *Profile
}

func (l *lazyProfile) get() *Profile {
	l.once.Do(func() { l.p = profileScript(l.src) })
	return l.p
}

// Profile is the engine-neutral cost of executing a script once.
type Profile struct {
	Ops      int64
	StrBytes int64
	Regex    script.RegexTotals
}

// Segment is a stretch of HTML the parser consumes between blocking points.
type Segment struct {
	Bytes units.ByteSize
}

// Page is a complete synthetic page.
type Page struct {
	Name      string
	Category  Category
	HTMLBody  string
	Segments  []Segment
	Resources []Resource // excludes the root HTML document
	HTMLSize  units.ByteSize
}

// TotalBytes returns the page weight including the document.
func (p *Page) TotalBytes() units.ByteSize {
	t := p.HTMLSize
	for _, r := range p.Resources {
		t += r.Size
	}
	return t
}

// NumScripts counts JS resources.
func (p *Page) NumScripts() int {
	n := 0
	for _, r := range p.Resources {
		if r.Type == JS {
			n++
		}
	}
	return n
}

// WorkingSet estimates the memory footprint of loading this page: browser
// baseline plus DOM/style/decoded-image expansion of the transferred bytes.
// Calibrated so Fig. 3b's RAM squeeze reproduces (~2× PLT at 512 MB).
func (p *Page) WorkingSet() units.ByteSize {
	return 600*units.MB + 200*p.TotalBytes()
}

// catParams shape a category's pages.
type catParams struct {
	scripts      [2]int  // min,max JS files
	images       [2]int  // min,max images
	css          [2]int  // min,max stylesheets
	domains      int     // origin spread
	regexHeavy   float64 // probability a script uses a regex-heavy template
	scriptScale  float64 // loop-size multiplier
	htmlParas    [2]int  // filler paragraphs
	syncFraction float64 // fraction of scripts that block parsing
}

var paramsFor = map[Category]catParams{
	News:     {scripts: [2]int{14, 20}, images: [2]int{35, 55}, css: [2]int{3, 5}, domains: 12, regexHeavy: 0.55, scriptScale: 1.5, htmlParas: [2]int{130, 200}, syncFraction: 0.5},
	Sports:   {scripts: [2]int{13, 18}, images: [2]int{30, 50}, css: [2]int{3, 5}, domains: 11, regexHeavy: 0.75, scriptScale: 1.6, htmlParas: [2]int{120, 180}, syncFraction: 0.5},
	Business: {scripts: [2]int{6, 10}, images: [2]int{15, 30}, css: [2]int{2, 4}, domains: 6, regexHeavy: 0.25, scriptScale: 0.8, htmlParas: [2]int{70, 120}, syncFraction: 0.4},
	Health:   {scripts: [2]int{5, 9}, images: [2]int{12, 25}, css: [2]int{2, 3}, domains: 5, regexHeavy: 0.2, scriptScale: 0.7, htmlParas: [2]int{60, 100}, syncFraction: 0.4},
	Shopping: {scripts: [2]int{8, 13}, images: [2]int{40, 70}, css: [2]int{3, 5}, domains: 9, regexHeavy: 0.35, scriptScale: 1.0, htmlParas: [2]int{80, 140}, syncFraction: 0.45},
}

// Generate builds one deterministic page. The same (name, category, seed)
// always yields the identical page, scripts, and profiles. Generate runs no
// script: each JS resource's profile is computed on its first use.
func Generate(name string, cat Category, seed uint64) *Page {
	rng := stats.NewRNG(seed ^ hash(name))
	pp, ok := paramsFor[cat]
	if !ok {
		panic(fmt.Sprintf("webpage: unknown category %q", cat))
	}
	g := &generator{rng: rng, pp: pp, page: &Page{Name: name, Category: cat}}
	g.build()
	return g.page
}

// Corpus generation is deterministic and moderately expensive, so the
// standard corpora are memoized through a shared bounded cache. Loads run outside the cache lock, so parallel trials with
// disjoint seeds still generate their corpora concurrently, and the byte
// cap keeps a long-running server's working set bounded no matter how many
// distinct seeds it sees. Pages are read-only after generation; callers
// must not mutate them. Eviction cannot change output: a corpus is a pure
// function of (kind, seed), pinned by TestCorpusIdenticalAcrossEviction.
type corpusKey struct {
	kind string // "top50" or "sports20"
	seed uint64
}

var corpusCache = cache.New[corpusKey, []*Page](cache.Config{
	Name:       "webpage.corpus",
	MaxEntries: 64,
	MaxBytes:   256 << 20,
})

func cachedCorpus(key corpusKey, build func() []*Page) []*Page {
	pages, err := corpusCache.GetOrLoad(key, func() ([]*Page, int64, error) {
		p := build()
		var bytes int64
		for _, pg := range p {
			bytes += corpusPageBytes(pg)
		}
		return p, bytes, nil
	})
	if err != nil { // build never errors; loader failures cannot happen
		panic(err)
	}
	return pages
}

// corpusPageBytes estimates a page's resident footprint for the cache's
// byte cap: the HTML body plus per-resource strings. Profiles are loaded
// later, on first use, and charged to their own cache, not here.
func corpusPageBytes(p *Page) int64 {
	n := int64(len(p.HTMLBody))
	for i := range p.Resources {
		r := &p.Resources[i]
		n += int64(len(r.URL) + len(r.Domain) + len(r.ScriptSrc))
	}
	return n
}

// Top50 generates (or returns the cached) Alexa-like corpus used by the PLT
// experiments: 10 pages from each of the 5 categories.
func Top50(seed uint64) []*Page {
	return cachedCorpus(corpusKey{kind: "top50", seed: seed}, func() []*Page {
		var pages []*Page
		for _, cat := range Categories() {
			for i := 0; i < 10; i++ {
				pages = append(pages, Generate(fmt.Sprintf("%s-%02d.example", cat, i), cat, seed+uint64(i)))
			}
		}
		return pages
	})
}

// SportsTop20 generates (or returns the cached) 20 sports pages used in the
// §4.2 offload evaluation (Fig. 7).
func SportsTop20(seed uint64) []*Page {
	return cachedCorpus(corpusKey{kind: "sports20", seed: seed}, func() []*Page {
		var pages []*Page
		for i := 0; i < 20; i++ {
			pages = append(pages, Generate(fmt.Sprintf("sports-top-%02d.example", i), Sports, seed+uint64(i)))
		}
		return pages
	})
}

func hash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

type generator struct {
	rng  *stats.RNG
	pp   catParams
	page *Page
}

func (g *generator) intIn(r [2]int) int { return r[0] + g.rng.Intn(r[1]-r[0]+1) }

func (g *generator) build() {
	nScripts := g.intIn(g.pp.scripts)
	nImages := g.intIn(g.pp.images)
	nCSS := g.intIn(g.pp.css)
	domains := make([]string, g.pp.domains)
	for i := range domains {
		domains[i] = fmt.Sprintf("cdn%d.%s", i, g.page.Name)
	}
	pick := func() string { return domains[g.rng.Intn(len(domains))] }

	// Resource plan. CSS first (head), scripts interleaved, images after.
	type planned struct {
		r       Resource
		segHint int
	}
	var plan []planned
	id := 0
	add := func(r Resource, seg int) int {
		r.ID = id
		id++
		plan = append(plan, planned{r: r, segHint: seg})
		return r.ID
	}

	for i := 0; i < nCSS; i++ {
		d := pick()
		add(Resource{
			URL: fmt.Sprintf("https://%s/styles/main-%d.css", d, i), Domain: d,
			Type: CSS, Size: units.ByteSize(10*1024 + g.rng.Intn(70*1024)),
			InjectedBy: -1,
		}, 0)
	}
	scriptIDs := make([]int, 0, nScripts)
	for i := 0; i < nScripts; i++ {
		d := pick()
		src := g.script()
		sid := add(Resource{
			URL: fmt.Sprintf("https://%s/js/app-%d.js", d, i), Domain: d,
			Type: JS, Size: units.ByteSize(15*1024 + g.rng.Intn(120*1024)),
			Blocking:   g.rng.Float64() < g.pp.syncFraction,
			ScriptSrc:  src,
			lazy:       &lazyProfile{src: src},
			InjectedBy: -1,
		}, 1+i%nScripts)
		scriptIDs = append(scriptIDs, sid)
	}
	for i := 0; i < nImages; i++ {
		d := pick()
		size := units.ByteSize(g.rng.Pareto(1.2, 8*1024, 280*1024))
		injected := -1
		if g.rng.Float64() < 0.2 && len(scriptIDs) > 0 {
			injected = scriptIDs[g.rng.Intn(len(scriptIDs))]
		}
		add(Resource{
			URL: fmt.Sprintf("https://%s/img/photo-%d.jpg", d, i), Domain: d,
			Type: Image, Size: size, InjectedBy: injected,
		}, 1+g.rng.Intn(nScripts+1))
	}

	// Compose real HTML, interleaving references with filler paragraphs, and
	// derive parse segments by scanning for blocking scripts.
	var b strings.Builder
	b.WriteString("<!doctype html><html><head><title>")
	b.WriteString(g.page.Name)
	b.WriteString("</title>\n")
	for _, p := range plan {
		if p.r.Type == CSS {
			fmt.Fprintf(&b, "<link rel=\"stylesheet\" href=%q>\n", p.r.URL)
		}
	}
	b.WriteString("</head><body>\n")
	paras := g.intIn(g.pp.htmlParas)
	perSegment := paras / (nScripts + 1)
	segStart := 0
	scriptIdx := 0
	segment := 0
	resources := make([]Resource, 0, len(plan))
	emitted := make(map[int]bool)
	// emitImages writes the static images planned for slot `hint` into the
	// HTML at the current parse segment.
	emitImages := func(hint int) {
		for _, p := range plan {
			if p.r.Type != Image || p.r.InjectedBy >= 0 || emitted[p.r.ID] {
				continue
			}
			if p.segHint == hint || hint < 0 {
				r := p.r
				r.Segment = segment
				fmt.Fprintf(&b, "<img src=%q alt=\"photo\">\n", r.URL)
				resources = append(resources, r)
				emitted[r.ID] = true
			}
		}
	}
	// CSS belongs to segment 0 (document head).
	for _, p := range plan {
		if p.r.Type == CSS {
			r := p.r
			r.Segment = 0
			resources = append(resources, r)
		}
	}
	for para := 0; para < paras; para++ {
		fmt.Fprintf(&b, "<div class=\"story s%d\"><p>%s</p></div>\n", para, g.filler())
		if scriptIdx < len(scriptIDs) && para-segStart >= perSegment {
			emitImages(scriptIdx + 1)
			// Emit the script tag; a blocking script ends the parse segment.
			var sr *planned
			for i := range plan {
				if plan[i].r.ID == scriptIDs[scriptIdx] {
					sr = &plan[i]
					break
				}
			}
			r := sr.r
			r.Segment = segment
			attrs := ""
			if !r.Blocking {
				attrs = " async"
			}
			fmt.Fprintf(&b, "<script src=%q%s></script>\n", r.URL, attrs)
			resources = append(resources, r)
			if r.Blocking {
				segment++
				segStart = para
			}
			scriptIdx++
		}
	}
	// Any scripts the paragraph loop didn't reach land at the document tail.
	for ; scriptIdx < len(scriptIDs); scriptIdx++ {
		for i := range plan {
			if plan[i].r.ID == scriptIDs[scriptIdx] {
				r := plan[i].r
				r.Segment = segment
				fmt.Fprintf(&b, "<script src=%q></script>\n", r.URL)
				resources = append(resources, r)
				if r.Blocking {
					segment++
				}
				break
			}
		}
	}
	emitImages(-1) // everything not yet placed lands in the final segment
	// Script-injected images belong to no parse segment.
	for _, p := range plan {
		if p.r.InjectedBy >= 0 {
			r := p.r
			r.Segment = -1
			resources = append(resources, r)
		}
	}
	b.WriteString("</body></html>\n")

	g.page.HTMLBody = b.String()
	g.page.HTMLSize = units.ByteSize(len(g.page.HTMLBody))
	g.page.Resources = resources
	// Segment byte counts: split the body evenly across parse segments
	// (blocking scripts define the boundaries).
	nSeg := segment + 1
	per := g.page.HTMLSize / units.ByteSize(nSeg)
	for i := 0; i < nSeg; i++ {
		g.page.Segments = append(g.page.Segments, Segment{Bytes: per})
	}
}

var fillerWords = strings.Fields(`
league final score transfer window breaking report market update index
analysis coach injury quarter earnings climate study patient care retail
checkout review rating stadium goal penalty record champion playoff draft
trade deadline outlook revenue guidance briefing headline exclusive live`)

func (g *generator) filler() string {
	n := 18 + g.rng.Intn(30)
	words := make([]string, n)
	for i := range words {
		words[i] = fillerWords[g.rng.Intn(len(fillerWords))]
	}
	return strings.Join(words, " ")
}

// profileCache memoizes script profiles by source text. Template-generated
// scripts differ only in a handful of integer parameters, so distinct seeds
// and trials frequently produce identical source; executing each distinct
// program once and sharing the immutable *Profile makes profiling the pages
// of later seeds substantially cheaper. Resources fill their profile cells
// through it on first use, and concurrent first uses of one source collapse
// onto one execution via the cache's singleflight loader. A loaded cell
// keeps its profile alive, so an eviction frees nothing while its page is
// cached, and a later first use of that source in another corpus makes a
// second copy. A profile keeps its regex work as totals, so every profile
// costs the same 112 bytes and the entry cap is the bound: 8192 profiles
// are under a megabyte. The source text an entry is keyed by is its
// resource's string, charged to the corpus cache while that corpus is
// cached and to no cache after.
var profileCache = cache.New[string, *Profile](cache.Config{
	Name:       "webpage.profiles",
	MaxEntries: 8192,
})

// profileBytes is what one cached profile is charged: the struct and the
// cache's entry overhead.
const profileBytes = 64 + int64(unsafe.Sizeof(Profile{}))

// profileScript returns src's profile through profileCache, running the
// script once per distinct source. The returned Profile is shared and must
// be treated as immutable by callers (all current consumers only read it).
func profileScript(src string) *Profile {
	prof, err := profileCache.GetOrLoad(src, func() (*Profile, int64, error) {
		return profile(src), profileBytes, nil
	})
	if err != nil {
		panic(err)
	}
	return prof
}

// profile parses and executes src, uncached, and returns the work it did.
// The profile's own regex totals are the script's regex host.
func profile(src string) *Profile {
	prog := script.MustParse(src)
	p := &Profile{}
	in := script.New(script.Config{Host: &p.Regex})
	if err := in.Run(prog); err != nil {
		panic(fmt.Sprintf("webpage: generated script failed: %v\n%s", err, src))
	}
	st := in.Stats()
	p.Ops, p.StrBytes = st.Ops, st.StrBytes
	return p
}
