// Package scenario is the declarative front end to the experiments: it
// decodes a strict JSON description of a sweep — one device (or a device
// list), one workload, one swept axis, fixed configuration for everything
// else — and compiles it into the experiments.Sweep the built-in figures
// run, built with the same point builders. A scenario that describes a
// built-in figure is therefore the same experiment and renders its table
// byte for byte (see testdata/web_sweep.json vs fig3a), and a scenario that
// describes no figure is how user-defined sweeps enter the system without
// writing Go.
//
// Parsing follows fault.ParsePlan's discipline: unknown fields, trailing
// data, and invalid names all fail loudly at load time, never mid-run.
package scenario

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"

	"mobileqoe/internal/core"
	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/experiments"
	"mobileqoe/internal/fault"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/strictjson"
	"mobileqoe/internal/units"
)

// Scenario is a validated, runnable sweep description.
type Scenario struct {
	// Name keys the run id ("scenario:<name>") and must be a
	// lowercase slug so it composes with file names and CLI output.
	Name string `json:"name"`
	// ID is the table id; it defaults to Name. A scenario describing a
	// built-in figure sets ID to that figure's id so the tables align.
	ID string `json:"id,omitempty"`
	// Title is the table title, printed verbatim.
	Title string `json:"title"`
	// Device names the device under test (see DeviceNames). Exactly one of
	// Device / Devices must be set; Devices is for the "device" axis.
	Device  string   `json:"device,omitempty"`
	Devices []string `json:"devices,omitempty"`
	// Workload selects what each cell runs.
	Workload Workload `json:"workload"`
	// Axis is the swept parameter: one table row per axis point.
	Axis Axis `json:"axis"`
	// Config fixes the non-swept parameters for every cell.
	Config Fixed `json:"config,omitempty"`
	// FaultPlan names a fault plan as -faults does: "none", "default" (the
	// built-in mixed plan), or a fault.Plan JSON file, resolved relative to
	// the scenario file by Load. The harness (qoesim) attaches it to the
	// run's experiments.Config, so per-trial injector seeding works exactly
	// as it does for -faults.
	FaultPlan string `json:"fault_plan,omitempty"`
	// Trials is the scenario's default trial count; 0 defers to the harness.
	Trials int `json:"trials,omitempty"`
	// SLO maps registry metric names to online alert rules, evaluated cell by
	// cell against bounded aggregates (see Watchdog). A scenario without an
	// slo: block runs byte-identically to one that never heard of SLOs.
	SLO map[string]Rule `json:"slo,omitempty"`
	// Notes are appended to the table verbatim.
	Notes []string `json:"notes,omitempty"`

	// SourceSHA256 is the hex SHA-256 of the scenario file bytes, set by
	// Load (empty for scenarios parsed from memory). Run logs record it so
	// an archived log pins the exact scenario revision it ran.
	SourceSHA256 string `json:"-"`
}

// Workload selects the application a cell runs and optionally overrides its
// duration; it is the figures' own workload type, validated and run by the
// experiments package.
type Workload = experiments.Workload

// Axis is the swept parameter. Numeric axes (clock_mhz, cores, ram_mb) list
// Values; name axes (governor, network) list Names; the device axis takes
// its points from Scenario.Devices and lists neither.
type Axis struct {
	Param  string    `json:"param"`
	Values []float64 `json:"values,omitempty"`
	Names  []string  `json:"names,omitempty"`
	// Column overrides the axis column header; the default is Param, except
	// ram_mb, whose rows print gigabytes and default to "ram_gb" like the
	// built-in memory figures.
	Column string `json:"column,omitempty"`
}

// Fixed pins the non-swept configuration axes. Zero values mean "device
// default", matching the built-in figures' behavior.
type Fixed struct {
	Governor string  `json:"governor,omitempty"` // PF | IN | US | OD | PW
	ClockMHz float64 `json:"clock_mhz,omitempty"`
	Cores    int     `json:"cores,omitempty"`
	RAMMB    float64 `json:"ram_mb,omitempty"`
	Network  string  `json:"network,omitempty"` // lan | lte | 3g
}

const (
	axisClock    = "clock_mhz"
	axisCores    = "cores"
	axisRAM      = "ram_mb"
	axisGovernor = "governor"
	axisNetwork  = "network"
	axisDevice   = "device"
)

// Spec-file rules shared by scenarios and fleet specs (internal/fleet).
var slugRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]*$`)

// IsSlug reports whether name is a valid scenario or fleet name: a lowercase
// slug of [a-z0-9_-] starting with a letter or digit.
func IsSlug(name string) bool { return slugRE.MatchString(name) }

// PlanPath resolves a fault plan named in the spec file at specPath: a
// relative plan file resolves against the spec's directory, so a spec and
// its plans travel together. An empty plan, a built-in plan name and an
// absolute path are returned unchanged.
func PlanPath(specPath, plan string) string {
	if plan == "" || fault.Builtin(plan) || filepath.IsAbs(plan) {
		return plan
	}
	return filepath.Join(filepath.Dir(specPath), plan)
}

// devices maps scenario device keys to catalog constructors. Keys are slugs,
// not the marketing names the specs carry, so files stay grep-able.
var devices = map[string]func() device.Spec{
	"intex":  device.IntexAmaze,
	"gionee": device.GioneeF103,
	"nexus4": device.Nexus4,
	"s2tab":  device.GalaxyS2Tab,
	"pixelc": device.PixelC,
	"pixel2": device.Pixel2,
	"s6edge": device.GalaxyS6Edge,
}

// DeviceSpec resolves a device key to its catalog spec. The key vocabulary
// is shared by scenarios and fleet specs (internal/fleet), so both layers
// validate against one catalog.
func DeviceSpec(key string) (device.Spec, bool) {
	fn, ok := devices[key]
	if !ok {
		return device.Spec{}, false
	}
	return fn(), true
}

// DeviceNames lists the accepted device keys, sorted, for error messages and
// docs.
func DeviceNames() []string {
	out := make([]string, 0, len(devices))
	for k := range devices {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Parse decodes and validates a scenario. Unknown fields are rejected, so a
// typoed parameter fails loudly instead of silently sweeping nothing.
func Parse(data []byte) (*Scenario, error) {
	var s Scenario
	if err := strictjson.Decode(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a scenario file. A relative FaultPlan file is
// resolved against the file's directory; built-in plan names are kept.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	s.SourceSHA256 = fmt.Sprintf("%x", sha256.Sum256(data))
	s.FaultPlan = PlanPath(path, s.FaultPlan)
	return s, nil
}

// Validate checks the scenario and returns the first problem found.
func (s *Scenario) Validate() error {
	if !IsSlug(s.Name) {
		return fmt.Errorf("scenario: name %q must be a lowercase slug ([a-z0-9_-])", s.Name)
	}
	if s.Title == "" {
		return fmt.Errorf("scenario %s: title is required", s.Name)
	}
	if s.Trials < 0 {
		return fmt.Errorf("scenario %s: trials %d is negative", s.Name, s.Trials)
	}
	if err := s.Workload.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := s.validateDevices(); err != nil {
		return err
	}
	if err := s.Axis.validate(s.Name); err != nil {
		return err
	}
	if err := s.Config.validate(s.Name); err != nil {
		return err
	}
	if s.fixedSets(s.Axis.Param) {
		return fmt.Errorf("scenario %s: config fixes %q, which is also the swept axis", s.Name, s.Axis.Param)
	}
	return validateSLO(s.Name, s.SLO)
}

func (s *Scenario) validateDevices() error {
	if s.Axis.Param == axisDevice {
		if s.Device != "" || len(s.Devices) == 0 {
			return fmt.Errorf("scenario %s: the device axis takes its points from \"devices\" (and \"device\" must be empty)", s.Name)
		}
		for _, d := range s.Devices {
			if _, ok := devices[d]; !ok {
				return fmt.Errorf("scenario %s: unknown device %q (want one of %v)", s.Name, d, DeviceNames())
			}
		}
		return nil
	}
	if s.Device == "" || len(s.Devices) != 0 {
		return fmt.Errorf("scenario %s: exactly one \"device\" is required unless sweeping the device axis", s.Name)
	}
	if _, ok := devices[s.Device]; !ok {
		return fmt.Errorf("scenario %s: unknown device %q (want one of %v)", s.Name, s.Device, DeviceNames())
	}
	return nil
}

func (a Axis) validate(name string) error {
	numeric := func() error {
		if len(a.Values) == 0 || len(a.Names) != 0 {
			return fmt.Errorf("scenario %s: axis %q sweeps numeric \"values\"", name, a.Param)
		}
		for _, v := range a.Values {
			if v <= 0 {
				return fmt.Errorf("scenario %s: axis %q value %v must be positive", name, a.Param, v)
			}
		}
		return nil
	}
	switch a.Param {
	case axisClock, axisRAM:
		return numeric()
	case axisCores:
		if err := numeric(); err != nil {
			return err
		}
		for _, v := range a.Values {
			if v != float64(int(v)) {
				return fmt.Errorf("scenario %s: cores value %v is not an integer", name, v)
			}
		}
		return nil
	case axisGovernor:
		if len(a.Names) == 0 || len(a.Values) != 0 {
			return fmt.Errorf("scenario %s: the governor axis sweeps \"names\"", name)
		}
		for _, g := range a.Names {
			if !validGovernor(g) {
				return fmt.Errorf("scenario %s: unknown governor %q (want one of %v)", name, g, cpu.Governors())
			}
		}
		return nil
	case axisNetwork:
		if len(a.Names) == 0 || len(a.Values) != 0 {
			return fmt.Errorf("scenario %s: the network axis sweeps \"names\"", name)
		}
		for _, n := range a.Names {
			if _, ok := netsim.Profiles()[n]; !ok {
				return fmt.Errorf("scenario %s: unknown network profile %q", name, n)
			}
		}
		return nil
	case axisDevice:
		if len(a.Values) != 0 || len(a.Names) != 0 {
			return fmt.Errorf("scenario %s: the device axis lists its points in \"devices\"", name)
		}
		return nil
	case "":
		return fmt.Errorf("scenario %s: axis.param is required (clock_mhz|cores|ram_mb|governor|network|device)", name)
	default:
		return fmt.Errorf("scenario %s: unknown axis.param %q", name, a.Param)
	}
}

func (f Fixed) validate(name string) error {
	if f.Governor != "" && !validGovernor(f.Governor) {
		return fmt.Errorf("scenario %s: unknown governor %q (want one of %v)", name, f.Governor, cpu.Governors())
	}
	if f.Network != "" {
		if _, ok := netsim.Profiles()[f.Network]; !ok {
			return fmt.Errorf("scenario %s: unknown network profile %q", name, f.Network)
		}
	}
	if f.ClockMHz < 0 || f.Cores < 0 || f.RAMMB < 0 {
		return fmt.Errorf("scenario %s: fixed config values must be positive", name)
	}
	return nil
}

// fixedSets reports whether the fixed config pins the named parameter.
func (s *Scenario) fixedSets(param string) bool {
	switch param {
	case axisClock:
		return s.Config.ClockMHz != 0
	case axisCores:
		return s.Config.Cores != 0
	case axisRAM:
		return s.Config.RAMMB != 0
	case axisGovernor:
		return s.Config.Governor != ""
	case axisNetwork:
		return s.Config.Network != ""
	}
	return false
}

func validGovernor(g string) bool {
	for _, k := range cpu.Governors() {
		if string(k) == g {
			return true
		}
	}
	return false
}

// RegistryID is the scenario's run id, "scenario:<name>", namespaced so it
// can never collide with a built-in figure id. engine.Compose resolves it
// to Runner privately, per plan; it never enters the registry.
func (s *Scenario) RegistryID() string { return "scenario:" + s.Name }

// TableID is the id stamped on the produced table (ID, defaulting to Name).
func (s *Scenario) TableID() string {
	if s.ID != "" {
		return s.ID
	}
	return s.Name
}

// Sweep compiles the scenario into the sweep it runs: the axis expanded
// against the fixed configuration through the figures' point builders,
// fixed options first in every point.
func (s *Scenario) Sweep() *experiments.Sweep {
	fixed := s.Config.options()
	var spec device.Spec // the device axis takes per-point specs instead
	if s.Device != "" {
		spec = devices[s.Device]()
	}
	v := s.Axis.Values
	var pts []experiments.Point
	switch s.Axis.Param {
	case axisClock:
		pts = experiments.ClockPoints(spec, fixed, convert(v, units.MHz))
	case axisCores:
		pts = experiments.CorePoints(spec, fixed, convert(v, func(x float64) int { return int(x) }))
	case axisRAM:
		pts = experiments.RAMPoints(spec, fixed, convert(v, func(x float64) units.ByteSize { return units.ByteSize(x) * units.MB }))
	case axisGovernor:
		pts = experiments.GovernorPoints(spec, fixed, convert(s.Axis.Names, func(g string) cpu.GovernorKind { return cpu.GovernorKind(g) }))
	case axisNetwork:
		pts = experiments.NetworkPoints(spec, fixed, s.Axis.Names)
	case axisDevice:
		pts = experiments.DevicePoints(fixed, convert(s.Devices, func(d string) device.Spec { return devices[d]() }))
	}
	return &experiments.Sweep{ID: s.TableID(), Title: s.Title, Axis: s.axisColumn(),
		Workload: s.Workload, Points: pts, Notes: s.Notes}
}

// Runner compiles the scenario into an experiments.Runner that builds its
// sweep afresh for every cell, so concurrent trials share nothing.
func (s *Scenario) Runner() experiments.Runner {
	return func(cfg experiments.Config) (*experiments.Table, error) { return s.Sweep().Run(cfg) }
}

func convert[S, T any](in []S, f func(S) T) []T {
	out := make([]T, len(in))
	for i, x := range in {
		out[i] = f(x)
	}
	return out
}

// options translates the fixed configuration into core options.
func (f Fixed) options() []core.Option {
	var opts []core.Option
	if f.Governor != "" {
		opts = append(opts, core.WithGovernor(cpu.GovernorKind(f.Governor)))
	}
	if f.ClockMHz != 0 {
		opts = append(opts, core.WithClock(units.MHz(f.ClockMHz)))
	}
	if f.Cores != 0 {
		opts = append(opts, core.WithCores(f.Cores))
	}
	if f.RAMMB != 0 {
		opts = append(opts, core.WithRAM(units.ByteSize(f.RAMMB)*units.MB))
	}
	if f.Network != "" {
		opts = append(opts, core.WithNetwork(netsim.Profiles()[f.Network]))
	}
	return opts
}

// axisColumn is the header over the row labels.
func (s *Scenario) axisColumn() string {
	if s.Axis.Column != "" {
		return s.Axis.Column
	}
	if s.Axis.Param == axisRAM {
		return "ram_gb" // rows print gigabytes, like fig3b/fig4b/fig5b
	}
	return s.Axis.Param
}
