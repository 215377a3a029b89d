package experiments

import (
	"errors"
	"fmt"
	"time"

	"mobileqoe/internal/core"
	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/stats"
	"mobileqoe/internal/telephony"
	"mobileqoe/internal/units"
	"mobileqoe/internal/video"
	"mobileqoe/internal/webpage"
)

// Sweep is one workload measured along one axis: one table row per Point,
// the axis label in the first column and the metric columns after it. The
// paper's one-axis figures (fig2b, fig2c, fig3a–fig6) are Sweeps, and
// internal/scenario compiles a scenario file into one, so a scenario and a
// figure run every cell through the same code. The comparison tables (fig2a,
// the abl-* ablations, the ext-* extensions) measure every point under a few
// Variants and derive their cells with Row.
type Sweep struct {
	ID, Title string
	Axis      string // header of the first column
	Workload  Workload
	Points    []Point
	// Variants are the column groups each point is measured under, in
	// order; nil is one group with no extra options.
	Variants []Variant
	// Row formats point i's cells after its label from one Measure per
	// variant, under the headers Columns. nil prints each variant's
	// workload cells under the workload's headers.
	Row     func(i int, m []Measure) []string
	Columns []string
	Pages   int // caps the corpus a page workload loads; 0 keeps Config.Pages
	Notes   []string
}

// Variant is one column group of a sweep: a workload (the zero value runs
// the sweep's own) and the options applied after the point's.
type Variant struct {
	Workload Workload
	Opts     []core.Option
}

// Measure is one variant at one point: the PLT seconds of every page for a
// page workload, the run's Result for the other kinds.
type Measure struct {
	PLT *stats.Sample
	core.Result
}

// Point is one row of a sweep: its label and the device and options every
// system built for the row gets.
type Point struct {
	Label string
	Spec  device.Spec
	Opts  []core.Option
}

// The workload kinds a Sweep, a scenario and a fleet can run.
const (
	KindPage  = "page"
	KindVideo = "video"
	KindCall  = "call"
	KindIperf = "iperf"
)

// Workload selects the application a cell runs and optionally overrides its
// duration; a zero override keeps the Config's duration. The JSON tags are
// the scenario and fleet schemas'. An override set for a different kind is a
// validation error, so a typoed override is never silently ignored.
type Workload struct {
	Kind   string  `json:"kind"`              // page | video | call | iperf
	ClipS  float64 `json:"clip_s,omitempty"`  // video: clip duration override
	CallS  float64 `json:"call_s,omitempty"`  // call: media duration override
	IperfS float64 `json:"iperf_s,omitempty"` // iperf: transfer duration override
}

// Validate checks the kind and that only the kind's own override is set.
func (w Workload) Validate() error {
	switch w.Kind {
	case KindPage, KindVideo, KindCall, KindIperf:
	case "":
		return errors.New("workload kind is required (page|video|call|iperf)")
	default:
		return fmt.Errorf("unknown workload kind %q (want page|video|call|iperf)", w.Kind)
	}
	if w.ClipS != 0 && w.Kind != KindVideo {
		return errors.New("clip_s only applies to the video workload")
	}
	if w.CallS != 0 && w.Kind != KindCall {
		return errors.New("call_s only applies to the call workload")
	}
	if w.IperfS != 0 && w.Kind != KindIperf {
		return errors.New("iperf_s only applies to the iperf workload")
	}
	if w.ClipS < 0 || w.CallS < 0 || w.IperfS < 0 {
		return errors.New("workload durations must be positive")
	}
	return nil
}

// Run executes the workload once on sys. page is what a page workload loads
// (the other kinds ignore it); durations not overridden come from cfg.
func (w Workload) Run(cfg Config, sys *core.System, page *webpage.Page) (core.Result, error) {
	switch w.Kind {
	case KindPage:
		return sys.Run(core.PageLoad{Page: page})
	case KindVideo:
		return sys.Run(core.VideoStream{Config: video.StreamConfig{Duration: override(w.ClipS, cfg.ClipDuration)}})
	case KindCall:
		return sys.Run(core.CallWorkload{Config: telephony.CallConfig{Duration: override(w.CallS, cfg.CallDuration)}})
	default:
		return sys.Run(core.IperfWorkload{Duration: override(w.IperfS, cfg.IperfDuration)})
	}
}

func override(s float64, d time.Duration) time.Duration {
	if s > 0 {
		return time.Duration(s * float64(time.Second))
	}
	return d
}

// columns is the workload's metric header.
func (w Workload) columns() []string {
	switch w.Kind {
	case KindPage:
		return []string{"plt_s(mean±std)"}
	case KindVideo:
		return []string{"startup_s", "stall_ratio", "resolution"}
	case KindCall:
		return []string{"setup_s", "fps", "resolution"}
	default:
		return []string{"throughput_mbps"}
	}
}

// measure runs the workload at one point: a page workload loads each page
// on a fresh system, the other kinds run once.
func (w Workload) measure(cfg Config, spec device.Spec, pages []*webpage.Page, opts []core.Option) (Measure, error) {
	if w.Kind == KindPage {
		plt, err := avgPLTOn(cfg, spec, pages, opts...)
		return Measure{PLT: plt}, err
	}
	res, err := w.Run(cfg, cfg.NewSystem(spec, opts...), nil)
	return Measure{Result: res}, err
}

// cells formats a measure under the workload's metric header.
func (w Workload) cells(m Measure) []string {
	switch w.Kind {
	case KindPage:
		return []string{meanStd(m.PLT.Mean(), m.PLT.Std())}
	case KindVideo:
		return []string{secs(m.Video.StartupLatency), fmt.Sprintf("%.3f", m.Video.StallRatio), m.Video.Rung.Name}
	case KindCall:
		return []string{secs(m.Call.SetupDelay), fps(m.Call.FrameRate), m.Call.Resolution.Name}
	default:
		return []string{mbps(m.Iperf.Throughput.Mbpsf())}
	}
}

// Run measures every point under every variant and renders the table; it is
// the Runner of a registered sweep. Systems are built point by point, then
// variant by variant, then page by page, with the point's options before the
// variant's; a faulted trial seeds each system's injector by that order.
func (s *Sweep) Run(cfg Config) (*Table, error) {
	variants := []Variant{{}}
	if s.Variants != nil {
		variants = append([]Variant(nil), s.Variants...)
	}
	t := &Table{ID: s.ID, Title: s.Title, Columns: append([]string{s.Axis}, s.Columns...)}
	var pages []*webpage.Page
	for j, v := range variants {
		if v.Workload.Kind == "" {
			variants[j].Workload = s.Workload
		}
		if variants[j].Workload.Kind == KindPage && pages == nil {
			pages = takePages(cfg, s.Pages)
		}
		if s.Row == nil {
			t.Columns = append(t.Columns, variants[j].Workload.columns()...)
		}
	}
	for i, pt := range s.Points {
		m := make([]Measure, len(variants))
		for j, v := range variants {
			var err error
			m[j], err = v.Workload.measure(cfg, pt.Spec, pages, append(pt.Opts[:len(pt.Opts):len(pt.Opts)], v.Opts...))
			if err != nil {
				return nil, err
			}
		}
		row := []string{pt.Label}
		if s.Row != nil {
			row = append(row, s.Row(i, m)...)
		} else {
			for j, v := range variants {
				row = append(row, v.Workload.cells(m[j])...)
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, s.Notes...)
	return t, nil
}

// registerSweep registers a sweep figure under the id its builder stamps.
// The sweep is built afresh for every run, so concurrent trials share no
// point or option slices.
func registerSweep(desc string, build func() *Sweep) {
	register(build().ID, desc, func(cfg Config) (*Table, error) { return build().Run(cfg) })
}

// points expands one axis on spec: fixed options first, then the value's
// own. Each point's option slice is full, so NewSystem's append never
// writes into memory another point shares.
func points[T any](spec device.Spec, fixed []core.Option, vals []T, label func(T) string, opt func(T) core.Option) []Point {
	pts := make([]Point, len(vals))
	for i, v := range vals {
		opts := make([]core.Option, len(fixed), len(fixed)+1)
		copy(opts, fixed)
		pts[i] = Point{Label: label(v), Spec: spec, Opts: append(opts, opt(v))}
	}
	return pts
}

// ClockPoints sweeps the userspace clock, labelled in whole MHz.
func ClockPoints(spec device.Spec, fixed []core.Option, clocks []units.Freq) []Point {
	return points(spec, fixed, clocks,
		func(f units.Freq) string { return fmt.Sprintf("%.0f", f.MHz()) }, core.WithClock)
}

// clockVariants measures w at each clock, given in MHz.
func clockVariants(w Workload, mhz ...float64) []Variant {
	vs := make([]Variant, len(mhz))
	for i, f := range mhz {
		vs[i] = Variant{Workload: w, Opts: []core.Option{core.WithClock(units.MHz(f))}}
	}
	return vs
}

// RAMPoints sweeps memory capacity, labelled in GB.
func RAMPoints(spec device.Spec, fixed []core.Option, sizes []units.ByteSize) []Point {
	return points(spec, fixed, sizes,
		func(b units.ByteSize) string { return fmt.Sprintf("%.1f", b.GBf()) }, core.WithRAM)
}

// CorePoints sweeps the online core count.
func CorePoints(spec device.Spec, fixed []core.Option, cores []int) []Point {
	return points(spec, fixed, cores, func(n int) string { return fmt.Sprintf("%d", n) }, core.WithCores)
}

// GovernorPoints sweeps the Android governor, labelled by its short name.
func GovernorPoints(spec device.Spec, fixed []core.Option, govs []cpu.GovernorKind) []Point {
	return points(spec, fixed, govs, func(g cpu.GovernorKind) string { return string(g) }, core.WithGovernor)
}

// NetworkPoints sweeps netsim profiles by key (see netsim.Profiles).
func NetworkPoints(spec device.Spec, fixed []core.Option, names []string) []Point {
	profiles := netsim.Profiles()
	return points(spec, fixed, names, func(n string) string { return n },
		func(n string) core.Option { return core.WithNetwork(profiles[n]) })
}

// DevicePoints sweeps devices, labelled by their catalog names; every point
// gets only the fixed options.
func DevicePoints(fixed []core.Option, specs []device.Spec) []Point {
	pts := make([]Point, len(specs))
	for i, sp := range specs {
		pts[i] = Point{Label: sp.Name, Spec: sp, Opts: fixed[:len(fixed):len(fixed)]}
	}
	return pts
}

// The paper's sweep axes on the Nexus4.
var (
	paperRAM   = []units.ByteSize{512 * units.MB, 1 * units.GB, 3 * units.GB / 2, 2 * units.GB}
	paperCores = []int{1, 2, 3, 4}
)
