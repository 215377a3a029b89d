package main

import (
	"fmt"
	"time"

	"mobileqoe/internal/core"
	"mobileqoe/internal/experiments"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/scenario"
	"mobileqoe/internal/script"
	"mobileqoe/internal/telephony"
	"mobileqoe/internal/video"
	"mobileqoe/internal/webpage"
)

// probeCorpus times corpus generation at a seed no workload uses, then
// parses and runs every script of that corpus with the recording regex
// host, which gives the exact script and regex work of a corpus. It must run
// first in a fresh process: webpage.Generate profiles each distinct script
// through a process-wide cache that sources of other seeds fill, and a cold
// server request starts from that empty cache.
func probeCorpus(tr *tracer, seed uint64, m map[string]float64) error {
	req := tr.newReq()
	root := tr.begin("bench.corpus", 0, req)
	defer tr.end(root)

	// webpage.Top50's recipe page by page, so each page is timed.
	genSeed := seed*10000 + 500
	var pages []*webpage.Page
	var corpusMS float64
	for _, cat := range webpage.Categories() {
		for i := 0; i < 10; i++ {
			sp := tr.begin("webpage.Generate", root, req)
			pages = append(pages, webpage.Generate(fmt.Sprintf("%s-%02d.example", cat, i), cat, genSeed+uint64(i)))
			took := ms(tr.end(sp))
			tr.sample("webpage.generate_ms", took)
			corpusMS += took
		}
	}
	m["webpage.corpus_ms"] = corpusMS

	var ops, calls, steps int64
	for _, p := range pages {
		for _, r := range p.Resources {
			if r.Type != webpage.JS {
				continue
			}
			sp := tr.begin("script.Parse", root, req)
			prog, err := script.Parse(r.ScriptSrc)
			tr.sample("script.parse_us", 1000*ms(tr.end(sp)))
			if err != nil {
				return fmt.Errorf("probe: parse %s: %w", r.URL, err)
			}
			host := script.NewCountingHost()
			in := script.New(script.Config{Host: host})
			sp = tr.begin("script.Run", root, req)
			err = in.Run(prog)
			tr.sample("script.run_us", 1000*ms(tr.end(sp)))
			if err != nil {
				return fmt.Errorf("probe: run %s: %w", r.URL, err)
			}
			ops += in.Stats().Ops
			calls += int64(len(host.Calls))
			steps += host.TotalPikeSteps() + host.TotalBTSteps()
		}
	}
	m["script.ops_per_corpus"] = float64(ops)
	m["rex.calls_per_corpus"] = float64(calls)
	m["rex.steps_per_corpus"] = float64(steps)
	return nil
}

// coreReps is how often each core probe runs; one run is a millisecond or
// two.
const coreReps = 20

// probeCore calls System.Run directly at the fleet's first device and
// network, with the fleet's workload durations, and records each run's
// host time and its exact simulator step count.
func probeCore(tr *tracer, seed uint64, m map[string]float64) error {
	req := tr.newReq()
	root := tr.begin("bench.core", 0, req)
	defer tr.end(root)
	cfg := experiments.Config{Seed: seed, Pages: 50}.WithDefaults()
	dev, ok := scenario.DeviceSpec("pixel2")
	if !ok {
		return fmt.Errorf("probe: no pixel2 device")
	}
	network := netsim.Profiles()["lte"]
	probes := []struct {
		name string
		w    core.Workload
	}{
		{"page", core.PageLoad{Page: cfg.Corpus()[0]}},
		{"video", core.VideoStream{Config: video.StreamConfig{Duration: 2 * time.Second}}},
		{"call", core.CallWorkload{Config: telephony.CallConfig{Duration: 2 * time.Second}}},
		{"iperf", core.IperfWorkload{Duration: time.Second}},
	}
	for _, p := range probes {
		var steps uint64
		for rep := 0; rep < coreReps; rep++ {
			sys := cfg.NewSystem(dev, core.WithNetwork(network))
			sp := tr.begin("core.Run", root, req)
			_, err := sys.Run(p.w)
			tr.sample("core."+p.name+"_ms", ms(tr.end(sp)))
			if err != nil {
				return fmt.Errorf("probe: core %s: %w", p.name, err)
			}
			if rep > 0 && sys.Sim.Steps() != steps {
				return fmt.Errorf("probe: core %s ran %d events, then %d", p.name, steps, sys.Sim.Steps())
			}
			steps = sys.Sim.Steps()
		}
		m["core."+p.name+"_events"] = float64(steps)
	}
	return nil
}
