package experiments

import (
	"errors"
	"fmt"
	"time"

	"mobileqoe/internal/core"
	"mobileqoe/internal/cpu"
	"mobileqoe/internal/device"
	"mobileqoe/internal/netsim"
	"mobileqoe/internal/telephony"
	"mobileqoe/internal/units"
	"mobileqoe/internal/video"
	"mobileqoe/internal/webpage"
)

// Sweep is one workload measured along one axis: one table row per Point,
// the axis label in the first column and the workload's metric columns after
// it. The paper's one-axis figures (fig2b, fig2c, fig3a–fig6) are Sweeps,
// and internal/scenario compiles a scenario file into one, so a scenario
// and a figure run every cell through the same code.
type Sweep struct {
	ID, Title string
	Axis      string // header of the first column
	Workload  Workload
	Points    []Point
	Notes     []string
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

// Run measures every point in order and renders the table; it is the
// Runner of a registered sweep. A page sweep loads each corpus page on a
// fresh system and reports the mean±std PLT; the other kinds run once per
// point.
func (s *Sweep) Run(cfg Config) (*Table, error) {
	t := &Table{ID: s.ID, Title: s.Title,
		Columns: append([]string{s.Axis}, s.Workload.columns()...)}
	var pages []*webpage.Page
	if s.Workload.Kind == KindPage {
		pages = corpus(cfg)
	}
	for _, pt := range s.Points {
		row, err := s.row(cfg, pt, pages)
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]string{pt.Label}, row...)...)
	}
	t.Notes = append(t.Notes, s.Notes...)
	return t, nil
}

// row measures one point and formats its metric cells.
func (s *Sweep) row(cfg Config, pt Point, pages []*webpage.Page) ([]string, error) {
	if s.Workload.Kind == KindPage {
		plt, err := avgPLTOn(cfg, pt.Spec, pages, pt.Opts...)
		if err != nil {
			return nil, err
		}
		return []string{meanStd(plt.Mean(), plt.Std())}, nil
	}
	res, err := s.Workload.Run(cfg, cfg.NewSystem(pt.Spec, pt.Opts...), nil)
	if err != nil {
		return nil, err
	}
	switch s.Workload.Kind {
	case KindVideo:
		m := res.Video
		return []string{secs(m.StartupLatency), fmt.Sprintf("%.3f", m.StallRatio), m.Rung.Name}, nil
	case KindCall:
		m := res.Call
		return []string{secs(m.SetupDelay), fps(m.FrameRate), m.Resolution.Name}, nil
	default:
		return []string{mbps(res.Iperf.Throughput.Mbpsf())}, nil
	}
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
