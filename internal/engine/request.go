package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"mobileqoe/internal/buildinfo"
	"mobileqoe/internal/experiments"
	"mobileqoe/internal/fault"
	"mobileqoe/internal/fleet"
	"mobileqoe/internal/runlog"
	"mobileqoe/internal/scenario"
	"mobileqoe/internal/trace"
)

// Request is one unit of work: an experiment id, an inline scenario
// document, or an inline fleet spec, plus the knobs that change the output.
// Exactly one of Experiment, Scenario/ScenarioPath, Fleet/FleetPath must be
// set. Everything that affects the rendered table is part of the result
// cache key; TimeoutS is execution policy and is not.
type Request struct {
	// Experiment is a registry id (e.g. "fig3a") or "all".
	Experiment string `json:"experiment,omitempty"`
	// Scenario is an inline scenario document (internal/scenario schema).
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// ScenarioPath loads a scenario file instead; local-process callers
	// only (the CLI). Servers reject it unless AllowLocalFiles is set.
	ScenarioPath string `json:"scenario_path,omitempty"`
	// Fleet is an inline fleet spec (internal/fleet schema).
	Fleet json.RawMessage `json:"fleet,omitempty"`
	// FleetPath loads a fleet spec file; local-process callers only.
	FleetPath string `json:"fleet_path,omitempty"`

	Seed   uint64 `json:"seed,omitempty"`   // 0 = default (1)
	Trials int    `json:"trials,omitempty"` // 0 = default (scenario's, else 1)
	Pages  int    `json:"pages,omitempty"`  // 0 = default (6)
	Full   bool   `json:"full,omitempty"`   // paper-scale configuration
	CSV    bool   `json:"csv,omitempty"`    // render CSV instead of a table

	// TimeoutS caps the run's wall clock in seconds; 0 uses the engine's
	// default. Policy, not identity: excluded from the cache key.
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// ParseRequest strictly decodes a request document: unknown fields and
// trailing data fail loudly, matching the scenario/fleet/fault parsers.
func ParseRequest(data []byte) (*Request, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Request
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("engine: parse request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("engine: parse request: trailing data after request object")
	}
	return &r, nil
}

// Plan is a composed, runnable request: resolved ids, a normalized-once
// config, the private runner resolution for ad-hoc scenarios, the run-log
// manifest describing the run, and the result cache key. One Compose
// implementation serves the CLI (cmd/qoesim) and the service (cmd/qoesimd),
// so the two can never drift in seed schedules, defaults, or manifests.
type Plan struct {
	Kind string // "experiment" | "scenario" | "fleet"
	// IDs are the registry ids to run (empty for fleet plans).
	IDs []string
	// Cfg is the UN-normalized config for runner.Run, which applies
	// WithDefaults exactly once. Compose turns metrics collection on (with
	// bounded histograms) for a scenario with an slo: block, whose watchdog
	// reads every cell's registry; collection never changes a rendered
	// table. Callers may attach more observability (tracing, metrics
	// printing, faults) before executing; doing so makes the output impure —
	// never result-cache such a run.
	Cfg experiments.Config
	// Resolve maps ad-hoc ids (the scenario's) to their runners without
	// touching the global registry; nil for registry-only plans.
	Resolve func(id string) (experiments.Runner, bool)
	// Scenario is the parsed scenario for scenario plans (SLO rules, table
	// id), nil otherwise.
	Scenario *scenario.Scenario
	// FleetSpec is the parsed spec for fleet plans, nil otherwise.
	FleetSpec *fleet.Spec
	// Manifest is ready for a run log: ids, seed schedule, doc fingerprint.
	// Tool, Parallel, and StartedAt are the executor's to fill.
	Manifest runlog.Manifest
	// DocSHA256 fingerprints the scenario/fleet document ("" for plain
	// experiment requests).
	DocSHA256 string
	// Key is the deterministic result cache key: SHA-256 over (kind, doc
	// fingerprint or ids, normalized seed/trials/pages, full, csv, code
	// version). Two processes of the same build compute the same key for
	// the same request.
	Key string
}

// ComposeOptions gate environment-dependent request features.
type ComposeOptions struct {
	// AllowLocalFiles permits ScenarioPath/FleetPath and fault-plan file
	// references. CLIs running in the user's working tree set it; servers
	// must not, so a request document can never read server-side files.
	AllowLocalFiles bool
}

// MaxCells bounds a plan's (experiment, trial) cell count. runner.Run
// allocates its cell grid up front, so the request document must not choose
// an arbitrarily large one; -run all at the paper's 20 trials is under 1,000.
const MaxCells = 1 << 16

// SeedSchedule is the seed-derivation contract stamped into every manifest.
const SeedSchedule = "trial t of a multi-trial run uses seed*1e6+t (experiments.TrialSeed); retry attempt a remixes the trial seed via experiments.AttemptSeed"

// Compose validates a request and builds its Plan. All composition errors
// are request errors (the service maps them to 400).
func Compose(req Request, opt ComposeOptions) (*Plan, error) {
	kinds := 0
	if req.Experiment != "" {
		kinds++
	}
	if len(req.Scenario) > 0 || req.ScenarioPath != "" {
		kinds++
	}
	if len(req.Fleet) > 0 || req.FleetPath != "" {
		kinds++
	}
	if kinds != 1 {
		return nil, fmt.Errorf("engine: request must set exactly one of experiment, scenario, fleet (got %d)", kinds)
	}
	if (req.ScenarioPath != "" || req.FleetPath != "") && !opt.AllowLocalFiles {
		return nil, fmt.Errorf("engine: scenario_path/fleet_path reference server-local files; submit the document inline")
	}
	if len(req.Scenario) > 0 && req.ScenarioPath != "" {
		return nil, fmt.Errorf("engine: scenario and scenario_path are mutually exclusive")
	}
	if len(req.Fleet) > 0 && req.FleetPath != "" {
		return nil, fmt.Errorf("engine: fleet and fleet_path are mutually exclusive")
	}

	cfg := experiments.Config{Seed: req.Seed, Pages: req.Pages}
	if req.Full {
		cfg = experiments.Full()
		cfg.Seed = req.Seed
		if req.Pages != 0 {
			cfg.Pages = req.Pages
		}
	}
	cfg.Trials = req.Trials

	p := &Plan{Cfg: cfg}
	switch {
	case req.Experiment != "":
		p.Kind = "experiment"
		if req.Experiment == "all" {
			p.IDs = experiments.IDs()
		} else {
			if experiments.Describe(req.Experiment) == "" {
				return nil, fmt.Errorf("engine: unknown experiment %q (have %s)",
					req.Experiment, strings.Join(experiments.IDs(), ", "))
			}
			p.IDs = []string{req.Experiment}
		}
	case len(req.Scenario) > 0 || req.ScenarioPath != "":
		p.Kind = "scenario"
		var sc *scenario.Scenario
		var err error
		if req.ScenarioPath != "" {
			sc, err = scenario.Load(req.ScenarioPath)
		} else {
			sc, err = scenario.Parse(req.Scenario)
			if sc != nil {
				sum := sha256.Sum256(req.Scenario)
				sc.SourceSHA256 = hex.EncodeToString(sum[:])
			}
		}
		if err != nil {
			return nil, err
		}
		if sc.FaultPlan != "" {
			if !opt.AllowLocalFiles {
				return nil, fmt.Errorf("engine: scenario %q references fault plan file %q; file references are not servable", sc.Name, sc.FaultPlan)
			}
			plan, err := fault.LoadPlan(sc.FaultPlan)
			if err != nil {
				return nil, err
			}
			p.Cfg.Faults = plan
		}
		if p.Cfg.Trials == 0 && sc.Trials > 0 {
			p.Cfg.Trials = sc.Trials
		}
		if len(sc.SLO) > 0 {
			// The SLO watchdog reads each cell's registry, and quantile
			// rules on histogram metrics need the bounded sketches.
			p.Cfg.Metrics = true
			p.Cfg.MetricsMode = trace.HistBounded
		}
		p.Scenario = sc
		p.DocSHA256 = sc.SourceSHA256
		id := sc.RegistryID()
		p.IDs = []string{id}
		fn := sc.Runner()
		p.Resolve = func(qid string) (experiments.Runner, bool) {
			if qid == id {
				return fn, true
			}
			return nil, false
		}
	default:
		p.Kind = "fleet"
		var spec *fleet.Spec
		var err error
		if req.FleetPath != "" {
			spec, err = fleet.Load(req.FleetPath)
		} else {
			spec, err = fleet.Parse(req.Fleet)
		}
		if err != nil {
			return nil, err
		}
		if !opt.AllowLocalFiles {
			for _, wp := range spec.FaultPlans {
				if !fault.Builtin(wp.Plan) {
					return nil, fmt.Errorf("engine: fleet spec %q references fault plan file %q; only the built-in plans (none, default) are servable", spec.Name, wp.Plan)
				}
			}
		}
		p.FleetSpec = spec
		p.DocSHA256 = spec.SourceSHA256
	}

	// Bounds apply to the normalized config, after a scenario's default
	// trial count, so neither the request nor the document can exceed them.
	norm := p.Cfg.WithDefaults()
	if norm.Pages < 1 {
		return nil, fmt.Errorf("engine: pages %d must be positive (0 selects the default)", norm.Pages)
	}
	if ids := max(len(p.IDs), 1); norm.Trials > MaxCells/ids {
		return nil, fmt.Errorf("engine: %d trials of %d experiment(s) exceed the %d-cell limit", norm.Trials, ids, MaxCells)
	}
	doc := p.DocSHA256
	if p.Kind == "experiment" {
		doc = strings.Join(p.IDs, ",")
	}
	// The fleet carries its own seed/pages/trials in the spec; the request
	// knobs that apply are still keyed for uniformity (they are defaults
	// there, so identical requests still collide onto one key).
	keySrc := fmt.Sprintf("qoesim-result-v1|%s|%s|seed=%d|trials=%d|pages=%d|full=%t|csv=%t|code=%s",
		p.Kind, doc, norm.Seed, norm.Trials, norm.Pages, req.Full, req.CSV, buildinfo.CodeVersion())
	sum := sha256.Sum256([]byte(keySrc))
	p.Key = hex.EncodeToString(sum[:])

	p.Manifest = runlog.Manifest{
		Experiments:    p.IDs,
		Seed:           norm.Seed,
		SeedSchedule:   SeedSchedule,
		Trials:         norm.Trials,
		Scenario:       req.ScenarioPath,
		ScenarioSHA256: p.DocSHA256,
		FaultPlan:      faultPlanRef(p),
	}
	if p.Kind == "fleet" {
		p.Manifest.Experiments = []string{"fleet:" + p.FleetSpec.Name}
		p.Manifest.Seed = p.FleetSpec.Seed
		p.Manifest.Trials = 1
		p.Manifest.SeedSchedule = fleet.SeedScheduleDoc
		p.Manifest.Scenario = req.FleetPath
	}
	return p, nil
}

// SLO returns the scenario's slo: block, nil for plans without one.
func (p *Plan) SLO() map[string]scenario.Rule {
	if p.Scenario == nil {
		return nil
	}
	return p.Scenario.SLO
}

func faultPlanRef(p *Plan) string {
	if p.Scenario != nil {
		return p.Scenario.FaultPlan
	}
	return ""
}
