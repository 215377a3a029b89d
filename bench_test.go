package mobileqoe

// The benchmark harness: one testing.B benchmark per table and figure in
// the paper's evaluation (plus the in-text analyses and ablations). Each
// iteration regenerates the artifact's full data series at a reduced-effort
// configuration; run with
//
//	go test -bench=. -benchmem
//
// and use `go run ./cmd/qoesim -run <id> -full` for paper-scale effort.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/runner"
)

// benchConfig trades corpus breadth for wall-clock speed; the series shapes
// are unchanged.
func benchConfig() experiments.Config {
	return experiments.Config{
		Seed:          1,
		Pages:         2,
		ClipDuration:  20 * time.Second,
		CallDuration:  10 * time.Second,
		IperfDuration: time.Second,
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	// One untimed run to populate every memoized cache this experiment
	// touches — corpora, script profiles — so the first timed iteration
	// measures experiment compute, not warm-up. (Warming only Top50 is not
	// enough: several experiments build their own corpora, which at
	// -benchtime 1x would bill whole-cache construction to iteration 1.)
	if _, err := experiments.Run(id, benchConfig()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// Table 1 and Figure 1.
func BenchmarkTable1Catalog(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1Evolution(b *testing.B) { benchExperiment(b, "fig1") }

// Figure 2: QoE across devices.
func BenchmarkFig2aWebAcrossDevices(b *testing.B)       { benchExperiment(b, "fig2a") }
func BenchmarkFig2bStreamingAcrossDevices(b *testing.B) { benchExperiment(b, "fig2b") }
func BenchmarkFig2cTelephonyAcrossDevices(b *testing.B) { benchExperiment(b, "fig2c") }

// Figure 3: Web browsing vs device parameters.
func BenchmarkFig3aWebClock(b *testing.B)     { benchExperiment(b, "fig3a") }
func BenchmarkFig3bWebMemory(b *testing.B)    { benchExperiment(b, "fig3b") }
func BenchmarkFig3cWebCores(b *testing.B)     { benchExperiment(b, "fig3c") }
func BenchmarkFig3dWebGovernors(b *testing.B) { benchExperiment(b, "fig3d") }

// Figure 4: Video streaming vs device parameters.
func BenchmarkFig4aStreamingClock(b *testing.B)     { benchExperiment(b, "fig4a") }
func BenchmarkFig4bStreamingMemory(b *testing.B)    { benchExperiment(b, "fig4b") }
func BenchmarkFig4cStreamingCores(b *testing.B)     { benchExperiment(b, "fig4c") }
func BenchmarkFig4dStreamingGovernors(b *testing.B) { benchExperiment(b, "fig4d") }

// Figure 5: Video telephony vs device parameters.
func BenchmarkFig5aTelephonyClock(b *testing.B)     { benchExperiment(b, "fig5a") }
func BenchmarkFig5bTelephonyMemory(b *testing.B)    { benchExperiment(b, "fig5b") }
func BenchmarkFig5cTelephonyCores(b *testing.B)     { benchExperiment(b, "fig5c") }
func BenchmarkFig5dTelephonyGovernors(b *testing.B) { benchExperiment(b, "fig5d") }

// Figure 6: second-order network effect.
func BenchmarkFig6ThroughputClock(b *testing.B) { benchExperiment(b, "fig6") }

// Figure 7: DSP offload.
func BenchmarkFig7aOffloadDefault(b *testing.B)  { benchExperiment(b, "fig7a") }
func BenchmarkFig7bPowerCDF(b *testing.B)        { benchExperiment(b, "fig7b") }
func BenchmarkFig7cOffloadLowClock(b *testing.B) { benchExperiment(b, "fig7c") }

// In-text analyses.
func BenchmarkCriticalPathDecomposition(b *testing.B) { benchExperiment(b, "text-crit") }
func BenchmarkRegexShare(b *testing.B)                { benchExperiment(b, "text-regex") }
func BenchmarkCategorySlowdown(b *testing.B)          { benchExperiment(b, "text-categories") }

// Ablations (DESIGN.md §5).
func BenchmarkAblationPacketCPU(b *testing.B) { benchExperiment(b, "abl-packetcpu") }
func BenchmarkAblationPrefetch(b *testing.B)  { benchExperiment(b, "abl-prefetch") }
func BenchmarkAblationHWDecoder(b *testing.B) { benchExperiment(b, "abl-hwdecoder") }
func BenchmarkAblationRPCSweep(b *testing.B)  { benchExperiment(b, "abl-rpc") }
func BenchmarkAblationEngines(b *testing.B)   { benchExperiment(b, "abl-engine") }
func BenchmarkAblationBigLittle(b *testing.B) { benchExperiment(b, "abl-biglittle") }

// Extensions (the paper's §6 future-work axes, built out).
func BenchmarkExtensionTLS(b *testing.B)      { benchExperiment(b, "ext-tls") }
func BenchmarkExtensionBrowsers(b *testing.B) { benchExperiment(b, "ext-browsers") }
func BenchmarkExtensionJoint(b *testing.B)    { benchExperiment(b, "ext-joint") }
func BenchmarkCoreUtilization(b *testing.B)   { benchExperiment(b, "text-coreuse") }

func BenchmarkExtensionEnergy(b *testing.B) { benchExperiment(b, "ext-energy") }

func BenchmarkExtensionHTTP2(b *testing.B) { benchExperiment(b, "ext-h2") }

// Multi-trial scale-out: the same experiment set and trial count on one
// worker vs every core. The parallel variant reports its measured speedup
// over a single-worker pass directly, so a single benchmark run answers the
// scale-out question without manual wall-clock arithmetic.
func benchmarkMultiTrial(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	ids := []string{"fig2a", "fig3a", "fig4a", "fig5a"}
	cfg := benchConfig()
	cfg.Trials = 4
	// Pre-generate every per-trial corpus and profile the pages the runs
	// load, so both variants time experiment compute, not the memoized
	// corpus construction and script profiling.
	for trial := 0; trial < cfg.Trials; trial++ {
		for _, p := range cfg.WithSeed(experiments.TrialSeed(cfg.Seed, trial)).Corpus() {
			for i := range p.Resources {
				p.Resources[i].Profile()
			}
		}
	}
	run := func(workers int) {
		res, err := runner.Run(context.Background(), ids, cfg, runner.Options{Parallel: workers})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			if len(r.Table.Rows) == 0 {
				b.Fatalf("%s produced no rows", r.ID)
			}
		}
	}
	var sequential time.Duration
	if workers > 1 {
		// One untimed single-worker pass to anchor the speedup metric.
		start := time.Now()
		run(1)
		sequential = time.Since(start)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		run(workers)
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(workers), "workers")
	if workers > 1 && elapsed > 0 {
		perIter := elapsed / time.Duration(b.N)
		b.ReportMetric(sequential.Seconds()/perIter.Seconds(), "speedup")
	}
}

func BenchmarkMultiTrialSequential(b *testing.B) { benchmarkMultiTrial(b, 1) }

// BenchmarkMultiTrialParallel pins the worker count to NumCPU explicitly
// rather than passing Parallel: 0 — GOMAXPROCS can be clamped below the
// core count in CI containers, which would silently benchmark a sequential
// run under a parallel name.
func BenchmarkMultiTrialParallel(b *testing.B) { benchmarkMultiTrial(b, runtime.NumCPU()) }
