package browser

import "mobileqoe/internal/trace"

// Trace emission — the simulated analogue of saving a DevTools/WProf trace:
// a finished load's waterfall replayed as Chrome trace-event spans.

// EmitTrace replays the recorded activity waterfall into tr under pid as
// spans in category "browser": main-thread activities on a "browser:main"
// lane, image decodes on "browser:raster", fetches on "browser:net", plus a
// "load-event" instant at PLT. Activities are already complete when this
// runs, so the load itself pays no tracing cost. A nil tracer is a no-op.
//
// critMs maps activity IDs to their critical-path segment in milliseconds
// (see wprof.PathStats.Segments), emitted as a "crit_ms" span annotation.
// Because segments telescope, the crit_ms values of one load sum exactly to
// its PLT — the property the differential trace profiler relies on to
// attribute an ePLT gap activity by activity. A nil critMs emits no
// annotations.
//
// Note the replayed spans cover [exec request, completion], so they include
// queueing behind other work on the same simulated thread — which is why
// spans on browser:* lanes may legitimately overlap (the trace invariant
// checker exempts them from the serialization rule).
func (r Result) EmitTrace(tr *trace.Tracer, pid int, critMs map[int]float64) {
	if tr == nil || len(r.Activities) == 0 {
		return
	}
	main := tr.Thread(pid, "browser:main")
	raster := tr.Thread(pid, "browser:raster")
	net := tr.Thread(pid, "browser:net")
	for _, a := range r.Activities {
		tid := net
		switch {
		case a.MainThread:
			tid = main
		case a.Kind.IsCompute():
			tid = raster
		}
		var args []trace.Arg
		if a.Cycles > 0 {
			args = append(args, trace.Arg{Key: "cycles", Val: a.Cycles})
		}
		if a.Bytes > 0 {
			args = append(args, trace.Arg{Key: "bytes", Val: float64(a.Bytes)})
		}
		if c, ok := critMs[a.ID]; ok {
			args = append(args, trace.Arg{Key: "crit_ms", Val: c})
		}
		if a.Failed {
			// Per-resource failure span: the abandoned fetch's whole
			// retry window, flagged for trace consumers (tracediff shows
			// exactly which resources a degraded load gave up on).
			args = append(args, trace.Arg{Key: "failed", Val: 1})
		}
		tr.Span("browser", a.Name, pid, tid, a.Start, a.End, args...)
	}
	loadArgs := []trace.Arg{{Key: "plt_ms", Val: float64(r.PLT) / 1e6}}
	if r.Degraded {
		loadArgs = append(loadArgs, trace.Arg{Key: "degraded", Val: 1})
	}
	tr.Instant("browser", "load-event", pid, main, r.StartedAt+r.PLT, loadArgs...)
}
