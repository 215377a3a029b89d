package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mobileqoe/internal/atomicfile"
	"mobileqoe/internal/buildinfo"
	"mobileqoe/internal/strictjson"
)

// Checkpoint layout — one directory per fleet run:
//
//	MANIFEST.json    identity + compatibility guard (written once at create)
//	shard_0007.json  one completed shard's full result (atomic tmp+rename)
//	run_state.json   coarse liveness: running/interrupted/complete/failed
//	final.json       canonical merged aggregate (only on completion)
//
// Every file is written through internal/atomicfile, so a kill -9 at any
// instant leaves each file either absent, previous, or complete — never
// torn. Resume trusts exactly the shard files that parse and match the
// manifest; anything else (a stray *.tmp*, a corrupt file, a shard from a
// different partition) is re-run, which is always safe because shards are
// deterministic.
const (
	checkpointSchema = 2 // 2: sketches encode as hs2, non-empty buckets only
	manifestName     = "MANIFEST.json"
	stateName        = "run_state.json"
	finalName        = "final.json"
)

// SeedScheduleDoc pins the derivation of all fleet randomness. It is stored
// in the checkpoint manifest and compared verbatim on resume: if a code
// change alters the schedule, old checkpoints must be refused, not merged.
const SeedScheduleDoc = "tuple i draws device, network, workload, fault plan, page from stats.NewRNG(splitmix64(seed, i)); shard k covers tuples [k*population/shards, (k+1)*population/shards)"

// Manifest identifies a checkpoint directory and guards resume
// compatibility. Everything except CreatedAt participates in the
// compatibility check; -parallel intentionally does not appear (it cannot
// affect results).
type Manifest struct {
	Type         string `json:"type"` // "fleet-manifest"
	Schema       int    `json:"schema"`
	Name         string `json:"name"`
	SpecSHA256   string `json:"spec_sha256"`
	Seed         uint64 `json:"seed"`
	Population   int    `json:"population"`
	Shards       int    `json:"shards"`
	SeedSchedule string `json:"seed_schedule"`
	// CodeVersion is the creating build's identity (buildinfo.CodeVersion).
	// Aggregates are only guaranteed mergeable within one build, so resume
	// refuses a mismatch when both sides are stamped.
	CodeVersion string `json:"code_version,omitempty"`
	CreatedAt   string `json:"created_at,omitempty"` // wall-clock class
}

// RunState is the coarse liveness record (run_state.json): purely
// informational — resume derives truth from the shard files, not from it.
type RunState struct {
	Type      string `json:"type"` // "fleet-state"
	Schema    int    `json:"schema"`
	Status    string `json:"status"` // running | interrupted | complete | failed
	Completed int    `json:"completed"`
	Restored  int    `json:"restored,omitempty"`
	Failed    int    `json:"failed,omitempty"`
	Skipped   int    `json:"skipped,omitempty"`
	UpdatedAt string `json:"updated_at,omitempty"` // wall-clock class
}

// aggRecord serializes one Agg: the canonical binary sketch/sum blobs
// (base64 via encoding/json's []byte convention) plus a redundant count for
// human eyes and corruption cross-checks.
type aggRecord struct {
	N      int64  `json:"n"`
	Sketch []byte `json:"sketch"`
	SumSq  []byte `json:"sumsq"`
}

// shardRecord is one shard checkpoint file.
type shardRecord struct {
	Type         string                    `json:"type"` // "fleet-shard"
	Schema       int                       `json:"schema"`
	SpecSHA256   string                    `json:"spec_sha256"`
	Shard        int                       `json:"shard"`
	Start        int                       `json:"start"`
	End          int                       `json:"end"`
	Attempts     int                       `json:"attempts"`
	WallMS       float64                   `json:"wall_ms"` // wall-clock class
	Tuples       int                       `json:"tuples"`
	TuplesFailed int                       `json:"tuples_failed,omitempty"`
	TupleErrors  map[string]int            `json:"tuple_errors,omitempty"`
	Counts       map[string]map[string]int `json:"counts,omitempty"`
	Aggs         map[string]aggRecord      `json:"aggs,omitempty"`
}

// finalRecord is the canonical merged aggregate (final.json). It carries no
// shard count and no wall-clock fields: its bytes must be identical across
// any sharding, parallelism, or kill/resume schedule of the same spec —
// that is the file CI byte-compares.
type finalRecord struct {
	Type         string                    `json:"type"` // "fleet-final"
	Schema       int                       `json:"schema"`
	Name         string                    `json:"name"`
	SpecSHA256   string                    `json:"spec_sha256"`
	Seed         uint64                    `json:"seed"`
	Population   int                       `json:"population"`
	Tuples       int                       `json:"tuples"`
	TuplesFailed int                       `json:"tuples_failed,omitempty"`
	TupleErrors  map[string]int            `json:"tuple_errors,omitempty"`
	Counts       map[string]map[string]int `json:"counts"`
	Aggs         map[string]aggRecord      `json:"aggs"`
}

// Checkpoint is an open checkpoint directory bound to one spec.
type Checkpoint struct {
	dir  string
	spec *Spec
}

func shardFile(k int) string { return fmt.Sprintf("shard_%04d.json", k) }

// Create initializes a fresh checkpoint directory for spec (creating it if
// needed) and writes the manifest. It refuses a directory that already
// holds a manifest — resuming must be an explicit choice (-resume), never
// an accident of reusing a path.
func Create(dir string, spec *Spec) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("fleet: %s already holds a checkpoint manifest (pass -resume to continue it, or use a fresh -checkpoint dir)", dir)
	}
	m := Manifest{
		Type:         "fleet-manifest",
		Schema:       checkpointSchema,
		Name:         spec.Name,
		SpecSHA256:   spec.SourceSHA256,
		Seed:         spec.Seed,
		Population:   spec.Population,
		Shards:       spec.Shards,
		SeedSchedule: SeedScheduleDoc,
		CodeVersion:  buildinfo.CodeVersion(),
		CreatedAt:    time.Now().UTC().Format(time.RFC3339),
	}
	b, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if err := atomicfile.Write(filepath.Join(dir, manifestName), append(b, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("fleet: manifest: %w", err)
	}
	return &Checkpoint{dir: dir, spec: spec}, nil
}

// ReadManifest reads and structurally validates a checkpoint manifest
// (strict JSON). The caller reconciles shard counts before Open.
func ReadManifest(dir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return m, fmt.Errorf("fleet: no checkpoint manifest in %s (was the run started with -checkpoint?): %w", dir, err)
	}
	if err := strictjson.Decode(data, &m); err != nil {
		return m, fmt.Errorf("fleet: manifest in %s: %w", dir, err)
	}
	if m.Type != "fleet-manifest" || m.Schema != checkpointSchema {
		return m, fmt.Errorf("fleet: manifest in %s: type %q schema %d, this build reads schema %d",
			dir, m.Type, m.Schema, checkpointSchema)
	}
	return m, nil
}

// Open opens dir for resume: it verifies the manifest is compatible with
// spec (same spec bytes, seed, population, shards, seed schedule, and —
// when both are stamped — code version), then loads every shard checkpoint
// that parses cleanly. Corrupt, torn, or mismatched shard files are
// reported in warnings and skipped, which simply re-runs those shards:
// determinism makes re-execution always safe.
func Open(dir string, spec *Spec) (*Checkpoint, map[int]*ShardResult, []string, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	switch {
	case m.SpecSHA256 != spec.SourceSHA256:
		return nil, nil, nil, fmt.Errorf("fleet: %s was checkpointed from a different spec file (sha %.12s, now %.12s) — resume needs the original spec", dir, m.SpecSHA256, spec.SourceSHA256)
	case m.Seed != spec.Seed || m.Population != spec.Population || m.Name != spec.Name:
		return nil, nil, nil, fmt.Errorf("fleet: %s manifest (name %s seed %d population %d) does not match the spec", dir, m.Name, m.Seed, m.Population)
	case m.Shards != spec.Shards:
		return nil, nil, nil, fmt.Errorf("fleet: %s was partitioned into %d shards, not %d — resume runs the original partition (drop -fleet-shards or use a fresh dir)", dir, m.Shards, spec.Shards)
	case m.SeedSchedule != SeedScheduleDoc:
		return nil, nil, nil, fmt.Errorf("fleet: %s was written under a different seed schedule — its shards cannot be merged with this build's; start a fresh checkpoint", dir)
	}
	if cv := buildinfo.CodeVersion(); cv != "" && m.CodeVersion != "" && cv != m.CodeVersion {
		return nil, nil, nil, fmt.Errorf("fleet: %s was written by build %.12s, this is %.12s — aggregates are only mergeable within one build; start a fresh checkpoint", dir, m.CodeVersion, cv)
	}
	c := &Checkpoint{dir: dir, spec: spec}
	restored := map[int]*ShardResult{}
	var warnings []string
	for k := 0; k < spec.Shards; k++ {
		path := filepath.Join(dir, shardFile(k))
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			warnings = append(warnings, fmt.Sprintf("%s: %v (will re-run shard %d)", path, err, k))
			continue
		}
		r, err := decodeShard(data, spec, k)
		if err != nil {
			warnings = append(warnings, fmt.Sprintf("%s: %v (will re-run shard %d)", path, err, k))
			continue
		}
		restored[k] = r
	}
	return c, restored, warnings, nil
}

// WriteShard durably records one completed shard (atomic tmp+rename). The
// supervisor calls it before announcing the shard done, so a crash after
// the announcement can never lose an announced shard.
func (c *Checkpoint) WriteShard(r *ShardResult) error {
	rec := shardRecord{
		Type:         "fleet-shard",
		Schema:       checkpointSchema,
		SpecSHA256:   c.spec.SourceSHA256,
		Shard:        r.Shard,
		Start:        r.Start,
		End:          r.End,
		Attempts:     r.Attempts,
		WallMS:       r.WallMS,
		Tuples:       r.Tuples,
		TuplesFailed: r.TuplesFailed,
		TupleErrors:  r.TupleErrors,
		Counts:       r.Counts,
		Aggs:         map[string]aggRecord{},
	}
	for metric, a := range r.Aggs {
		ar, err := encodeAgg(a)
		if err != nil {
			return fmt.Errorf("fleet: shard %d %s: %w", r.Shard, metric, err)
		}
		rec.Aggs[metric] = ar
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return atomicfile.Write(filepath.Join(c.dir, shardFile(r.Shard)), append(b, '\n'), 0o644)
}

// WriteState records coarse run liveness (atomic; best effort semantics —
// see RunState).
func (c *Checkpoint) WriteState(st RunState) error {
	st.Type = "fleet-state"
	st.Schema = checkpointSchema
	st.UpdatedAt = time.Now().UTC().Format(time.RFC3339)
	b, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return atomicfile.Write(filepath.Join(c.dir, stateName), append(b, '\n'), 0o644)
}

// WriteFinal writes final.json: the canonical merged bytes (FinalBytes).
func (c *Checkpoint) WriteFinal(m *Merged) error {
	b, err := FinalBytes(c.spec, m)
	if err != nil {
		return err
	}
	return atomicfile.Write(filepath.Join(c.dir, finalName), b, 0o644)
}

// FinalBytes renders the canonical merged-aggregate serialization: sorted
// JSON keys (encoding/json's map ordering) over canonical binary aggregate
// blobs, no shard or wall-clock fields. Byte-identical across any sharding
// of the same spec — the artifact kill/resume tests and CI byte-compare.
func FinalBytes(spec *Spec, m *Merged) ([]byte, error) {
	rec := finalRecord{
		Type:         "fleet-final",
		Schema:       checkpointSchema,
		Name:         spec.Name,
		SpecSHA256:   spec.SourceSHA256,
		Seed:         spec.Seed,
		Population:   spec.Population,
		Tuples:       m.Tuples,
		TuplesFailed: m.TuplesFailed,
		TupleErrors:  m.TupleErrors,
		Counts:       m.Counts,
		Aggs:         map[string]aggRecord{},
	}
	for metric, a := range m.Aggs {
		ar, err := encodeAgg(a)
		if err != nil {
			return nil, fmt.Errorf("fleet: %s: %w", metric, err)
		}
		rec.Aggs[metric] = ar
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return append(b, '\n'), nil
}

func encodeAgg(a *Agg) (aggRecord, error) {
	sk, err := a.Sketch.MarshalBinary()
	if err != nil {
		return aggRecord{}, err
	}
	sq, err := a.SumSq.MarshalBinary()
	if err != nil {
		return aggRecord{}, err
	}
	return aggRecord{N: a.Sketch.N(), Sketch: sk, SumSq: sq}, nil
}

func decodeAgg(ar aggRecord) (*Agg, error) {
	a := &Agg{}
	if err := a.Sketch.UnmarshalBinary(ar.Sketch); err != nil {
		return nil, err
	}
	if err := a.SumSq.UnmarshalBinary(ar.SumSq); err != nil {
		return nil, err
	}
	if a.Sketch.N() != ar.N {
		return nil, fmt.Errorf("agg count %d does not match sketch count %d", ar.N, a.Sketch.N())
	}
	return a, nil
}

// decodeShard validates one shard checkpoint against the current spec and
// partition. Every failure is recoverable (the shard re-runs).
func decodeShard(data []byte, spec *Spec, k int) (*ShardResult, error) {
	var rec shardRecord
	if err := strictjson.Decode(data, &rec); err != nil {
		return nil, err
	}
	if rec.Type != "fleet-shard" || rec.Schema != checkpointSchema {
		return nil, fmt.Errorf("type %q schema %d, want fleet-shard schema %d", rec.Type, rec.Schema, checkpointSchema)
	}
	if rec.SpecSHA256 != spec.SourceSHA256 {
		return nil, errors.New("shard checkpoint from a different spec")
	}
	start, end := ShardRange(spec.Population, spec.Shards, k)
	if rec.Shard != k || rec.Start != start || rec.End != end {
		return nil, fmt.Errorf("shard range [%d,%d) does not match partition [%d,%d)", rec.Start, rec.End, start, end)
	}
	if rec.Tuples != end-start {
		return nil, fmt.Errorf("tuple count %d, want %d", rec.Tuples, end-start)
	}
	r := newShardResult(k, start, end)
	r.Attempts = rec.Attempts
	r.WallMS = rec.WallMS
	r.Tuples = rec.Tuples
	r.TuplesFailed = rec.TuplesFailed
	for class, n := range rec.TupleErrors {
		r.TupleErrors[class] = n
	}
	for axis, labels := range rec.Counts {
		m := map[string]int{}
		for label, n := range labels {
			m[label] = n
		}
		r.Counts[axis] = m
	}
	for metric, ar := range rec.Aggs {
		a, err := decodeAgg(ar)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", metric, err)
		}
		r.Aggs[metric] = a
	}
	return r, nil
}
