package core

import (
	"fmt"
	"testing"
	"time"

	"mobileqoe/internal/device"
	"mobileqoe/internal/trace"
	"mobileqoe/internal/webpage"
)

// renderResult projects a workload Result onto a deterministic string so
// two runs can be compared byte for byte (the structs are scalar-only, so
// %+v is stable).
func renderResult(r Result) string {
	switch {
	case r.Page != nil:
		return fmt.Sprintf("plt=%v started=%v deg=%v failed=%d restarts=%d activities=%d",
			r.Page.PLT, r.Page.StartedAt, r.Page.Degraded,
			len(r.Page.FailedResources), r.Page.Restarts, len(r.Page.Activities))
	case r.Video != nil:
		return fmt.Sprintf("%+v", *r.Video)
	case r.Call != nil:
		return fmt.Sprintf("%+v", *r.Call)
	case r.Iperf != nil:
		return fmt.Sprintf("%+v", *r.Iperf)
	}
	return "empty"
}

// TestEmptyCtxRunsByteIdentical is the obs.Ctx nil-safety table: for every
// workload, a system running dark (the empty Ctx that replaced the
// pre-refactor nil Trace/Metrics fields) and a system with the full
// observability plane attached must produce byte-identical results. The
// observability refactor is passive plumbing — attaching it, or leaving the
// Ctx empty, must never perturb virtual time.
func TestEmptyCtxRunsByteIdentical(t *testing.T) {
	page := webpage.Generate("obs.example", webpage.News, 7)
	workloads := []Workload{
		PageLoad{Page: page},
		VideoStream{},
		CallWorkload{},
		IperfWorkload{Duration: time.Second},
	}
	for _, w := range workloads {
		t.Run(w.Name(), func(t *testing.T) {
			run := func(tr *trace.Tracer, m *trace.Metrics) string {
				sys := NewObservedSystem(tr, m, device.Nexus4())
				res, err := sys.Run(w)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if (sys.Obs.Trace != nil) != (tr != nil) {
					t.Fatalf("Obs.Trace set %v with tracer %v", sys.Obs.Trace != nil, tr != nil)
				}
				return renderResult(res)
			}
			dark := run(nil, nil)
			tr := trace.New()
			lit := run(tr, trace.NewMetrics())
			if dark != lit {
				t.Fatalf("observability perturbed the run:\n--- empty Ctx ---\n%s\n--- traced+metered ---\n%s", dark, lit)
			}
			if tr.Len() == 0 {
				t.Fatal("observed run emitted no trace events (plane not wired)")
			}
		})
	}
}
