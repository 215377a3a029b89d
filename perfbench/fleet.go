package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mobileqoe/internal/fleet"
)

// fleetSpec is the mix of internal/fleet/testdata/fleet_ci.json plus call
// tuples, over the whole 50-page corpus where fleet_ci.json samples 3 pages.
// With 3 pages, which three a seed draws set the page-load cost: the median
// shard moved from 16.9 to 21.0 ms across five seeds (quartile distance
// 16% of the median), against 6.3% over 50 pages. Every shard holds the
// same number of tuples.
const fleetSpec = `{
  "name": "bench",
  "population": %d,
  "shards": %d,
  "seed": %d,
  "pages": 50,
  "device_mix": [{"device": "pixel2", "weight": 3}, {"device": "intex", "weight": 1}],
  "networks": [{"name": "lte", "weight": 2}, {"name": "3g", "weight": 1}],
  "workloads": [
    {"kind": "page", "weight": 3},
    {"kind": "video", "weight": 1, "clip_s": 2},
    {"kind": "iperf", "weight": 1, "iperf_s": 1},
    {"kind": "call", "weight": 1, "call_s": 2}
  ],
  "fault_plans": [{"plan": "none", "weight": 3}, {"plan": "default", "weight": 1}]
}`

// fleetBench runs a population the way qoesim -fleet -checkpoint does:
// parse, compile, and run the shards with every completed shard written to
// a fresh checkpoint. The operation is one whole fleet; its timed units are
// its shards, each with its checkpoint write.
type fleetBench struct {
	doc   []byte
	dir   string // checkpoints go in numbered subdirectories
	runs  int
	first []byte // final.json of the untimed set-up fleet
	// corrupt, when set, damages each final.json read back before it is
	// checked (the self-test uses it to prove the check can fail).
	corrupt func([]byte) []byte
}

func newFleet(seed uint64, dir string, population, shards int) *fleetBench {
	return &fleetBench{
		doc: []byte(fmt.Sprintf(fleetSpec, population, shards, seed)),
		dir: dir,
	}
}

// setup builds the shared page corpus (inside Compile) and runs one
// untimed fleet whose final.json every timed fleet must reproduce.
func (b *fleetBench) setup(clk *refClock) error {
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	final, err := b.once(nil, 0, clk, nil)
	if err != nil {
		return fmt.Errorf("fleet: set-up run: %w", err)
	}
	b.first = final
	return nil
}

// once runs one fleet into a fresh checkpoint, verifies it, removes the
// checkpoint, and returns its final.json bytes. clk laps when
// the run starts and after every shard; shard, when set, sees every shard
// with the reference time of its lap.
func (b *fleetBench) once(tr *tracer, req int64, clk *refClock, shard func(ev fleet.Event, refMS float64)) ([]byte, error) {
	b.runs++
	dir := filepath.Join(b.dir, fmt.Sprintf("fleet-%d", b.runs))
	defer os.RemoveAll(dir)

	root := tr.begin("bench.fleet", 0, req)
	sp := tr.begin("fleet.Parse", root, req)
	spec, err := fleet.Parse(b.doc)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return nil, err
	}
	sp = tr.begin("fleet.Compile", root, req)
	r, err := spec.Compile()
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return nil, err
	}
	sp = tr.begin("fleet.Create", root, req)
	cp, err := fleet.Create(dir, spec)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return nil, err
	}
	clk.lap()
	run := tr.begin("fleet.Run", root, req)
	res := fleet.Run(context.Background(), r, nil, fleet.Options{
		Parallel: workers,
		OnComplete: func(sh *fleet.ShardResult) error {
			w := tr.begin("fleet.WriteShard", run, req)
			err := cp.WriteShard(sh)
			tr.sample("fleet.checkpoint_ms", ms(tr.end(w)))
			return err
		},
		Progress: func(ev fleet.Event) {
			refMS := clk.lap()
			now := time.Now()
			tr.record("fleet.shard", run, req, now.Add(-ev.Elapsed), now)
			if ev.Err == nil && ev.Tuples > 0 {
				tr.sample("fleet.tuple_us", float64(ev.Elapsed)/1e3/float64(ev.Tuples))
			}
			if shard != nil {
				shard(ev, refMS)
			}
		},
	})
	tr.end(run)
	var werr error
	if res.Failed == 0 && res.Skipped == 0 && !res.Interrupted {
		sp = tr.begin("fleet.WriteFinal", root, req)
		werr = cp.WriteFinal(res.Merged)
		tr.end(sp)
	}
	tr.end(root)

	switch {
	case res.Failed > 0 || res.Skipped > 0 || res.Interrupted:
		return nil, fmt.Errorf("fleet: %d shards failed, %d skipped, interrupted=%t", res.Failed, res.Skipped, res.Interrupted)
	case res.Merged.TuplesFailed > 0:
		return nil, fmt.Errorf("fleet: %d of %d tuples failed: %v", res.Merged.TuplesFailed, res.Merged.Tuples, res.Merged.TupleErrors)
	case werr != nil:
		return nil, werr
	}
	return b.verify(dir, spec, res.Merged)
}

// verify reads the checkpoint back: its final.json must equal FinalBytes of
// the in-memory merge and of a merge of the shard files on disk.
func (b *fleetBench) verify(dir string, spec *fleet.Spec, merged *fleet.Merged) ([]byte, error) {
	final, err := os.ReadFile(filepath.Join(dir, "final.json"))
	if err != nil {
		return nil, err
	}
	if b.corrupt != nil {
		final = b.corrupt(final)
	}
	want, err := fleet.FinalBytes(spec, merged)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(final, want) {
		return nil, fmt.Errorf("fleet: final.json (%d bytes) differs from FinalBytes of the in-memory merge (%d bytes)", len(final), len(want))
	}
	_, restored, warnings, err := fleet.Open(dir, spec)
	if err != nil {
		return nil, err
	}
	if len(warnings) > 0 || len(restored) != spec.Shards {
		return nil, fmt.Errorf("fleet: checkpoint holds %d of %d shards (%v)", len(restored), spec.Shards, warnings)
	}
	shards := make([]*fleet.ShardResult, 0, len(restored))
	for _, sh := range restored {
		shards = append(shards, sh)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].Shard < shards[j].Shard })
	disk, err := fleet.FinalBytes(spec, fleet.MergeShards(shards))
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(final, disk) {
		return nil, fmt.Errorf("fleet: final.json differs from a merge of the checkpointed shards")
	}
	return final, nil
}

func (b *fleetBench) run(deadline time.Time, tr *tracer) *tally {
	t := &tally{}
	before := readGoStats()
	for i := 0; time.Now().Before(deadline); i++ {
		opTr := alternate(tr, i)
		var shards []float64
		final, err := b.once(opTr, opTr.newReq(), startClock(), func(ev fleet.Event, refMS float64) {
			if ev.Err == nil {
				shards = append(shards, refMS)
			}
		})
		if err == nil && !bytes.Equal(final, b.first) {
			err = fmt.Errorf("fleet: final.json differs from the set-up fleet's")
		}
		t.add(shards, opTr != nil, err)
	}
	t.goSince(before)
	return t
}

func (b *fleetBench) digest() string {
	sum := sha256.Sum256(b.first)
	return "final.json sha256:" + hex.EncodeToString(sum[:])
}

func (b *fleetBench) peakRSSMB() (float64, error) { return peakRSSMB("self") }

func (b *fleetBench) close() error { return os.RemoveAll(b.dir) }
