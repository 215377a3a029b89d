// Package fleet scales the reproduction from single experiments to
// population runs: a declarative strict-JSON spec samples (device, network,
// workload, fault-plan) tuples from weighted distributions, partitions the
// population into contiguous shards, and a supervised executor runs the
// shards into bounded, exactly-mergeable aggregates with atomic
// checkpoint/resume (qoesim -fleet).
//
// The hard invariant, extending the runner's parallel-equals-sequential
// contract to crash/resume: for a fixed spec, the merged aggregates — and
// everything rendered from them (the final table, the canonical final.json
// bytes) — are identical for ANY shard count, ANY -parallel value, and ANY
// kill/resume schedule, including kill -9 between checkpoints. Two
// mechanisms carry the whole proof:
//
//   - every tuple's randomness derives from TupleSeed(spec seed, global
//     tuple index) — a splitmix64 finalizer — so what a tuple simulates is
//     independent of which shard ran it, when, or on which attempt;
//   - every aggregate is an integer tally, a stats.HistSketch, or a
//     stats.ExactSum, all of which merge exactly in any grouping (a
//     streaming variance accumulator's Chan-formula merge is not
//     byte-stable across groupings, so exact variance comes from an
//     ExactSum of squares instead).
package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"mobileqoe/internal/experiments"
	"mobileqoe/internal/fault"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/scenario"
)

// Spec is a declarative fleet: a population size, a shard partition, and
// weighted distributions over the four tuple axes. Parse rejects unknown
// fields, so a typoed distribution fails loudly instead of silently
// sampling a default.
type Spec struct {
	// Name is a slug used in table ids, checkpoint manifests, and run logs.
	Name string `json:"name"`
	// Title is the human heading over the final table (default "Fleet: <name>").
	Title string `json:"title,omitempty"`
	// Population is the number of simulated-user tuples to run.
	Population int `json:"population"`
	// Shards partitions [0, population) into this many contiguous ranges
	// (default 1). The partition is the unit of checkpointing and retry; it
	// never affects results.
	Shards int `json:"shards,omitempty"`
	// Seed roots the whole run's randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Pages is the webpage-corpus size page tuples sample from (default 6,
	// max 50 — the Top50 catalog). One corpus is shared by every tuple, so
	// memory stays bounded at any population.
	Pages int `json:"pages,omitempty"`
	// DeviceMix, Networks, Workloads, FaultPlans are the weighted axes.
	// Networks defaults to [{lan,1}]; FaultPlans to [{none,1}].
	DeviceMix  []WeightedDevice   `json:"device_mix"`
	Networks   []WeightedNetwork  `json:"networks,omitempty"`
	Workloads  []WeightedWorkload `json:"workloads"`
	FaultPlans []WeightedPlan     `json:"fault_plans,omitempty"`
	// Notes are appended verbatim to the final table.
	Notes []string `json:"notes,omitempty"`

	// SourceSHA256 fingerprints the spec bytes (set by Parse/Load); the
	// checkpoint manifest pins it so -resume refuses a changed spec.
	SourceSHA256 string `json:"-"`
}

// WeightedDevice is one device-mix entry; Device is a scenario catalog key
// (scenario.DeviceNames).
type WeightedDevice struct {
	Device string `json:"device"`
	Weight int    `json:"weight"`
}

// WeightedNetwork is one network entry; Name is a netsim profile key
// ("lan", "lte", "3g").
type WeightedNetwork struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`
}

// WeightedWorkload is one workload entry: the workload a scenario or a
// figure runs, with its kind vocabulary and duration overrides, plus a
// weight.
type WeightedWorkload struct {
	experiments.Workload
	Weight int `json:"weight"`
}

// WeightedPlan is one fault-plan entry: "none", "default", or a plan file
// path (relative paths resolve against the spec file's directory in Load).
type WeightedPlan struct {
	Plan   string `json:"plan"`
	Weight int    `json:"weight"`
}

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]*$`)

// maxWeight bounds a single entry's weight so the cumulative table cannot
// overflow and a fat-fingered weight fails at parse time.
const maxWeight = 1 << 20

// maxShards bounds the partition. The supervisor keeps one slot per shard
// in its in-order event window, so an unbounded shard count in a request
// document is an allocation the request controls. The population is bounded
// so ShardRange's k·population cannot overflow.
const (
	maxShards     = 1 << 16
	maxPopulation = math.MaxInt / maxShards
)

// Parse decodes and validates a fleet spec, applying defaults and stamping
// SourceSHA256 from the input bytes. Unknown fields are rejected.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if dec.More() {
		return nil, errors.New("fleet: trailing data after spec object")
	}
	s.applyDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(data)
	s.SourceSHA256 = hex.EncodeToString(sum[:])
	return &s, nil
}

// Load reads a spec file. Relative fault-plan paths resolve against the
// spec's directory, so a spec and its plans travel together.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	dir := filepath.Dir(path)
	for i, p := range s.FaultPlans {
		if !fault.Builtin(p.Plan) && !filepath.IsAbs(p.Plan) {
			s.FaultPlans[i].Plan = filepath.Join(dir, p.Plan)
		}
	}
	return s, nil
}

func (s *Spec) applyDefaults() {
	if s.Shards == 0 {
		s.Shards = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Pages == 0 {
		s.Pages = 6
	}
	if len(s.Networks) == 0 {
		s.Networks = []WeightedNetwork{{Name: "lan", Weight: 1}}
	}
	if len(s.FaultPlans) == 0 {
		s.FaultPlans = []WeightedPlan{{Plan: "none", Weight: 1}}
	}
}

// Validate checks the spec (after defaults). Exported so -fleet-shards
// overrides can revalidate.
func (s *Spec) Validate() error {
	if s.Name == "" || !nameRE.MatchString(s.Name) {
		return fmt.Errorf("fleet: name %q must be a slug (lowercase letters, digits, _ , -)", s.Name)
	}
	if s.Population < 1 || s.Population > maxPopulation {
		return fmt.Errorf("fleet %s: population %d must be in [1, %d]", s.Name, s.Population, maxPopulation)
	}
	if s.Shards < 1 || s.Shards > s.Population || s.Shards > maxShards {
		return fmt.Errorf("fleet %s: shards %d must be in [1, min(population %d, %d)]", s.Name, s.Shards, s.Population, maxShards)
	}
	if s.Pages < 0 || s.Pages > 50 {
		return fmt.Errorf("fleet %s: pages %d must be in [1, 50]", s.Name, s.Pages)
	}
	if len(s.DeviceMix) == 0 {
		return fmt.Errorf("fleet %s: device_mix is required", s.Name)
	}
	seen := map[string]bool{}
	for _, d := range s.DeviceMix {
		if _, ok := scenario.DeviceSpec(d.Device); !ok {
			return fmt.Errorf("fleet %s: unknown device %q (want one of %s)",
				s.Name, d.Device, strings.Join(scenario.DeviceNames(), ", "))
		}
		if seen[d.Device] {
			return fmt.Errorf("fleet %s: duplicate device %q", s.Name, d.Device)
		}
		seen[d.Device] = true
		if err := checkWeight(s.Name, "device "+d.Device, d.Weight); err != nil {
			return err
		}
	}
	profiles := netsim.Profiles()
	seen = map[string]bool{}
	for _, n := range s.Networks {
		if _, ok := profiles[n.Name]; !ok {
			return fmt.Errorf("fleet %s: unknown network %q", s.Name, n.Name)
		}
		if seen[n.Name] {
			return fmt.Errorf("fleet %s: duplicate network %q", s.Name, n.Name)
		}
		seen[n.Name] = true
		if err := checkWeight(s.Name, "network "+n.Name, n.Weight); err != nil {
			return err
		}
	}
	if len(s.Workloads) == 0 {
		return fmt.Errorf("fleet %s: workloads is required", s.Name)
	}
	seen = map[string]bool{}
	for _, w := range s.Workloads {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("fleet %s: %w", s.Name, err)
		}
		if seen[w.Kind] {
			return fmt.Errorf("fleet %s: duplicate workload kind %q", s.Name, w.Kind)
		}
		seen[w.Kind] = true
		if err := checkWeight(s.Name, "workload "+w.Kind, w.Weight); err != nil {
			return err
		}
	}
	seen = map[string]bool{}
	for _, p := range s.FaultPlans {
		if p.Plan == "" {
			return fmt.Errorf("fleet %s: fault plan entry without plan (want none, default, or a plan path)", s.Name)
		}
		if seen[p.Plan] {
			return fmt.Errorf("fleet %s: duplicate fault plan %q", s.Name, p.Plan)
		}
		seen[p.Plan] = true
		if err := checkWeight(s.Name, "fault plan "+p.Plan, p.Weight); err != nil {
			return err
		}
	}
	return nil
}

func checkWeight(name, what string, w int) error {
	if w < 1 || w > maxWeight {
		return fmt.Errorf("fleet %s: %s weight %d must be in [1, %d]", name, what, w, maxWeight)
	}
	return nil
}

// TupleSeed derives tuple i's root seed from the spec seed with a
// splitmix64-style finalizer (the same construction experiments uses for
// per-system fault seeds). The schedule is pinned by test — changing it
// invalidates every checkpoint, which is why the checkpoint manifest
// records SeedSchedule and Open refuses a mismatch.
func TupleSeed(seed uint64, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ShardRange is the contiguous tuple range [start, end) of shard k — the
// balanced integer partition, so any population splits without remainder
// drift. Pinned by the checkpoint manifest via SeedSchedule.
func ShardRange(population, shards, k int) (start, end int) {
	return k * population / shards, (k + 1) * population / shards
}
