package experiments

import (
	"fmt"

	"mobileqoe/internal/core"
	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/stats"
	"mobileqoe/internal/units"
	"mobileqoe/internal/webpage"
	"mobileqoe/internal/wprof"
)

func init() {
	registerSweep("Web PLT across the seven devices (Fig. 2a)", fig2a)
	registerSweep("Web PLT vs clock frequency on the Nexus4 (Fig. 3a)", fig3a)
	registerSweep("Web PLT vs memory capacity (Fig. 3b)", fig3b)
	registerSweep("Web PLT vs number of cores (Fig. 3c)", fig3c)
	registerSweep("Web PLT vs Android governor (Fig. 3d)", fig3d)
	register("text-crit", "Critical-path decomposition at 1512 vs 384 MHz (§3.1)", textCrit)
	register("text-categories", "PLT slowdown by page category at low clock (§3.1)", textCategories)
}

// corpus returns the experiment's page subset, spread across categories.
func corpus(cfg Config) []*webpage.Page {
	all := webpage.Top50(cfg.Seed)
	if cfg.Pages >= len(all) {
		return all
	}
	stride := len(all) / cfg.Pages
	var out []*webpage.Page
	for i := 0; i < cfg.Pages; i++ {
		out = append(out, all[i*stride])
	}
	return out
}

// Corpus returns the run's page subset — the same pages the built-in web
// figures measure — so scenario-defined sweeps and fig2a/fig3 rows stay
// comparable cell for cell.
func (c Config) Corpus() []*webpage.Page { return corpus(c) }

// takePages returns at most n pages (all of them for n = 0) from the
// experiment's corpus subset.
func takePages(cfg Config, n int) []*webpage.Page {
	pages := corpus(cfg)
	if n > 0 && len(pages) > n {
		pages = pages[:n]
	}
	return pages
}

// avgPLTOn loads each page on a freshly configured system and aggregates
// PLT seconds across the subset. A deadlined load surfaces as core.ErrDeadline
// rather than a panic so the cell can be recorded as failed.
func avgPLTOn(cfg Config, spec device.Spec, pages []*webpage.Page, opts ...core.Option) (*stats.Sample, error) {
	var s stats.Sample
	for _, p := range pages {
		sys := cfg.NewSystem(spec, opts...)
		res, err := sys.Run(core.PageLoad{Page: p})
		if err != nil {
			return nil, err
		}
		s.Add(res.Page.PLT.Seconds())
	}
	return &s, nil
}

func fig2a() *Sweep {
	specs := device.Catalog()
	return &Sweep{ID: "fig2a", Title: "Web browsing PLT across devices (default governor)",
		Axis: "device", Workload: Workload{Kind: KindPage}, Points: DevicePoints(nil, specs),
		Columns: []string{"cost$", "plt_s(mean±std)"},
		Row: func(i int, m []Measure) []string {
			return []string{fmt.Sprintf("%d", specs[i].CostUSD), meanStd(m[0].PLT.Mean(), m[0].PLT.Std())}
		},
		Notes: []string{"paper shape: Intex ≈5x and Gionee ≈3x the Pixel2; Pixel2 beats the pricier S6-edge"}}
}

func fig3a() *Sweep {
	return &Sweep{ID: "fig3a", Title: "Web PLT vs clock frequency (Nexus4, userspace governor)",
		Axis: "clock_mhz", Workload: Workload{Kind: KindPage},
		Points: ClockPoints(device.Nexus4(), nil, device.Nexus4FreqSteps()),
		Notes:  []string{"paper shape: ~4-5x PLT growth from 1512 to 384 MHz"}}
}

func fig3b() *Sweep {
	return &Sweep{ID: "fig3b", Title: "Web PLT vs memory capacity (Nexus4)",
		Axis: "ram_gb", Workload: Workload{Kind: KindPage},
		Points: RAMPoints(device.Nexus4(), []core.Option{core.WithGovernor(cpu.Performance)}, paperRAM),
		Notes:  []string{"paper shape: ~2x PLT at 512 MB vs 2 GB, mild above 1 GB"}}
}

func fig3c() *Sweep {
	return &Sweep{ID: "fig3c", Title: "Web PLT vs online cores (Nexus4)",
		Axis: "cores", Workload: Workload{Kind: KindPage},
		Points: CorePoints(device.Nexus4(), []core.Option{core.WithGovernor(cpu.Performance)}, paperCores),
		Notes:  []string{"paper shape: only modest change — the browser uses no more than two cores"}}
}

func fig3d() *Sweep {
	return &Sweep{ID: "fig3d", Title: "Web PLT vs Android governor (Nexus4)",
		Axis: "governor", Workload: Workload{Kind: KindPage},
		Points: GovernorPoints(device.Nexus4(), nil, cpu.Governors()),
		Notes:  []string{"paper shape: powersave ≈ +50% over the others"}}
}

func textCrit(cfg Config) (*Table, error) {
	t := &Table{ID: "text-crit", Title: "WProf critical-path decomposition (Nexus4)",
		Columns: []string{"clock_mhz", "path_total_s", "network_s", "compute_s", "script_s", "script_share"}}
	pages := corpus(cfg)
	for _, mhz := range []float64{1512, 384} {
		var total, network, compute, script stats.Sample
		for _, p := range pages {
			sys := cfg.NewSystem(device.Nexus4(), core.WithClock(units.MHz(mhz)))
			res, err := sys.Run(core.PageLoad{Page: p})
			if err != nil {
				return nil, err
			}
			st := wprof.FromResult(*res.Page).CriticalPath()
			total.Add(st.Total.Seconds())
			network.Add(st.Network.Seconds())
			compute.Add(st.Compute.Seconds())
			script.Add(st.Script.Seconds())
		}
		t.AddRow(fmt.Sprintf("%.0f", mhz), ratio(total.Mean()), ratio(network.Mean()),
			ratio(compute.Mean()), ratio(script.Mean()),
			pct(script.Mean()/compute.Mean()))
	}
	t.Notes = append(t.Notes,
		"paper shape: both components inflate at 384 MHz, compute faster than network;",
		"scripting ≈51% of compute at high clock, ≈60% at low clock")
	return t, nil
}

func textCategories(cfg Config) (*Table, error) {
	t := &Table{ID: "text-categories", Title: "Per-category PLT slowdown, 1512→384 MHz (Nexus4)",
		Columns: []string{"category", "plt_1512_s", "plt_384_s", "slowdown"}}
	for _, cat := range webpage.Categories() {
		var pages []*webpage.Page
		for i := 0; i < 2; i++ {
			pages = append(pages,
				webpage.Generate(fmt.Sprintf("%s-cat-%d.example", cat, i), cat, cfg.Seed))
		}
		hi, err := avgPLTOn(cfg, device.Nexus4(), pages, core.WithClock(units.MHz(1512)))
		if err != nil {
			return nil, err
		}
		lo, err := avgPLTOn(cfg, device.Nexus4(), pages, core.WithClock(units.MHz(384)))
		if err != nil {
			return nil, err
		}
		t.AddRow(string(cat), ratio(hi.Mean()), ratio(lo.Mean()), ratio(lo.Mean()/hi.Mean()))
	}
	t.Notes = append(t.Notes,
		"paper shape: news and sports degrade the most (heaviest scripting)")
	return t, nil
}
