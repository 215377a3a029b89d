package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mobileqoe/internal/device"
)

// neverDone is a workload whose completion callback can never fire: Start
// schedules nothing, so the kernel drains with done still false.
type neverDone struct{}

func (neverDone) Name() string                { return "never-done" }
func (neverDone) Deadline() time.Duration     { return time.Second }
func (neverDone) Start(*System, func(Result)) {}

// wedged keeps the event queue busy forever, so the run must be cut off by
// the virtual-time limit rather than by queue exhaustion — and the
// post-deadline drain must not chase the self-rescheduling chain.
type wedged struct{}

func (wedged) Name() string            { return "wedged" }
func (wedged) Deadline() time.Duration { return time.Second }
func (wedged) Start(sys *System, done func(Result)) {
	var tick func()
	tick = func() { sys.Sim.After(10*time.Millisecond, tick) }
	tick()
}

func TestRunDeadlineReturnsTypedError(t *testing.T) {
	for _, w := range []Workload{neverDone{}, wedged{}} {
		sys := NewSystem(device.Nexus4())
		res, err := sys.Run(w)
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("%s: err = %v, want ErrDeadline", w.Name(), err)
		}
		if !strings.Contains(err.Error(), w.Name()) {
			t.Fatalf("error does not name the workload: %v", err)
		}
		if res != (Result{}) {
			t.Fatalf("%s: non-zero Result alongside the deadline error", w.Name())
		}
	}
}

// TestDeadlineLeavesFutureEventsQueued pins the bounded-drain behavior: after
// a deadline the kernel must not chase the wedged workload's future events.
func TestDeadlineLeavesFutureEventsQueued(t *testing.T) {
	sys := NewSystem(device.Nexus4())
	if _, err := sys.Run(wedged{}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	now, ddl := sys.Sim.Now(), (wedged{}).Deadline()
	if now > ddl+time.Second {
		t.Fatalf("clock ran to %v, far past the %v deadline", now, ddl)
	}
	if !sys.Sim.Step() {
		t.Fatal("wedge chain fully drained — the post-deadline drain is unbounded again")
	}
}
