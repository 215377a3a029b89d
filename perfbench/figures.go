package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"mobileqoe/internal/engine"
	"mobileqoe/internal/experiments"
	"mobileqoe/internal/runner"
	"mobileqoe/internal/webpage"
)

// figures runs the paper-reproduction path: runner.Run of the multi-trial
// suite, back to back. The operation and its timed unit are one suite pass.
type figures struct {
	cfg   experiments.Config
	ids   []string
	first []byte // rendered tables of the untimed set-up pass
	// corrupt, when set, damages each timed pass's rendering before it is
	// checked (the self-test uses it to prove the check can fail).
	corrupt func([]byte) []byte
}

func newFigures(seed uint64) *figures {
	return &figures{
		cfg: experiments.Config{
			Seed: seed, Pages: 2, Trials: 4,
			ClipDuration: 20 * time.Second, CallDuration: 10 * time.Second, IperfDuration: time.Second,
		},
		ids: []string{"fig2a", "fig3a", "fig4a", "fig5a", "fig6"},
	}
}

// setup builds every trial corpus, then runs one untimed pass whose
// rendering every timed pass must reproduce.
func (f *figures) setup(clk *refClock) error {
	norm := f.cfg.WithDefaults()
	for t := 0; t < norm.Trials; t++ {
		webpage.Top50(experiments.TrialSeed(norm.Seed, t))
		clk.lap()
	}
	out, _, err := f.pass(nil, 0, clk, nil)
	if err != nil {
		return fmt.Errorf("figures: set-up pass: %w", err)
	}
	f.first = out
	return nil
}

// pass runs the suite once and renders it as qoesim prints it, returning
// the rendering and the time spent in runner.Run. clk laps after every
// cell; cell, when set, sees every completed cell.
func (f *figures) pass(tr *tracer, req int64, clk *refClock, cell func(runner.Event)) ([]byte, time.Duration, error) {
	root := tr.begin("bench.pass", 0, req)
	defer tr.end(root)
	run := tr.begin("runner.Run", root, req)
	start := time.Now()
	res, err := runner.Run(context.Background(), f.ids, f.cfg, runner.Options{
		Parallel: workers,
		Progress: func(ev runner.Event) {
			now := time.Now()
			tr.record("experiments."+ev.ID, run, req, now.Add(-ev.Elapsed), now)
			tr.sample("experiments."+ev.ID+"_ms", ms(ev.Elapsed))
			if cell != nil {
				cell(ev)
			}
			clk.lap()
		},
	})
	runDur := time.Since(start)
	tr.end(run)
	if err != nil {
		return nil, runDur, err
	}
	render := tr.begin("engine.RenderResults", root, req)
	defer tr.end(render)
	out, err := engine.RenderResults(res, false)
	return out, runDur, err
}

func (f *figures) run(deadline time.Time, tr *tracer) *tally {
	t := &tally{}
	before := readGoStats()
	for i := 0; time.Now().Before(deadline); i++ {
		opTr := alternate(tr, i)
		req := opTr.newReq()
		var sum float64 // cell time, ms
		clk := startClock()
		out, runDur, err := f.pass(opTr, req, clk, func(ev runner.Event) {
			sum += ms(ev.Elapsed)
		})
		clk.lap()
		if err == nil {
			err = f.check(out)
		}
		t.add([]float64{clk.total}, opTr != nil, err)
		if opTr != nil && err == nil {
			runMS := ms(runDur)
			opTr.sample("runner.busy_frac", sum/(runMS*float64(workers)))
			opTr.sample("runner.tail_ms", runMS-sum/float64(workers))
			opTr.sample("figures.cell_sum_ms", sum)
		}
	}
	t.goSince(before)
	return t
}

// check compares a timed pass with the set-up pass byte for byte.
func (f *figures) check(out []byte) error {
	if f.corrupt != nil {
		out = f.corrupt(out)
	}
	if !bytes.Equal(out, f.first) {
		return fmt.Errorf("figures: pass rendered %d bytes that differ from the set-up pass (%d bytes)", len(out), len(f.first))
	}
	return nil
}

// layers adds the per-layer metrics that need more than sample medians:
// exact simulator work counts from one pass with the metrics registry on,
// and host time per simulated event.
func (f *figures) layers(tr *tracer, m map[string]float64) error {
	cfg := f.cfg
	cfg.Metrics = true
	res, err := runner.Run(context.Background(), f.ids, cfg, runner.Options{Parallel: workers})
	if err != nil {
		return fmt.Errorf("figures: metrics pass: %w", err)
	}
	var events, tasks float64
	for _, r := range res {
		if r.Err != nil {
			return fmt.Errorf("figures: metrics pass: %w", r.Err)
		}
		events += r.Table.Metrics.LookupCounter("sim.events").Value()
		tasks += r.Table.Metrics.LookupCounter("cpu.tasks").Value()
	}
	m["sim.events_per_pass"] = events
	m["cpu.tasks_per_pass"] = tasks
	if events > 0 {
		m["sim.ns_per_event"] = tr.median("figures.cell_sum_ms") * 1e6 / events
	}
	return nil
}

func (f *figures) digest() string {
	sum := sha256.Sum256(f.first)
	return "rendered tables sha256:" + hex.EncodeToString(sum[:])
}

func (f *figures) peakRSSMB() (float64, error) { return peakRSSMB("self") }

func (f *figures) close() error { return nil }
