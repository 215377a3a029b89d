package sim

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestRunEmpty(t *testing.T) {
	s := New()
	s.Run()
	if s.Now() != 0 {
		t.Fatalf("clock moved on empty run: %v", s.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.At(3*time.Second, func() { got = append(got, 3) })
	s.At(1*time.Second, func() { got = append(got, 1) })
	s.At(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("final time = %v", s.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New()
	var fired time.Duration
	s.At(time.Second, func() {
		s.After(2*time.Second, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 3*time.Second {
		t.Fatalf("After fired at %v, want 3s", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.At(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(0, func() {})
	})
	s.Run()
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	New().At(time.Second, nil)
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(time.Second, func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	// Double cancel and nil cancel must be safe.
	s.Cancel(e)
	s.Cancel(nil)
}

func TestCancelFromCallback(t *testing.T) {
	s := New()
	fired := false
	var e2 *Event
	s.At(time.Second, func() { s.Cancel(e2) })
	e2 = s.At(2*time.Second, func() { fired = true })
	s.Run()
	if fired {
		t.Fatal("event canceled from another callback still fired")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		s.At(d, func() { got = append(got, d) })
	}
	s.RunUntil(3 * time.Second)
	if len(got) != 2 {
		t.Fatalf("RunUntil executed %d events, want 2", len(got))
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("RunUntil left clock at %v, want 3s", s.Now())
	}
	s.Run()
	if len(got) != 3 {
		t.Fatalf("remaining event not run: %v", got)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	s := New()
	fired := false
	s.At(3*time.Second, func() { fired = true })
	s.RunUntil(3 * time.Second)
	if !fired {
		t.Fatal("event exactly at boundary did not fire")
	}
}

func TestTicker(t *testing.T) {
	s := New()
	var ticks []time.Duration
	var tk *Ticker
	tk = s.NewTicker(10*time.Millisecond, func() {
		ticks = append(ticks, s.Now())
		if len(ticks) == 4 {
			tk.Stop()
		}
	})
	s.Run()
	if len(ticks) != 4 {
		t.Fatalf("got %d ticks, want 4", len(ticks))
	}
	for i, tick := range ticks {
		want := time.Duration(i+1) * 10 * time.Millisecond
		if tick != want {
			t.Fatalf("tick %d at %v, want %v", i, tick, want)
		}
	}
}

func TestTickerStopTwice(t *testing.T) {
	s := New()
	tk := s.NewTicker(time.Second, func() {})
	tk.Stop()
	tk.Stop()
	s.Run()
}

func TestTickerBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive ticker period did not panic")
		}
	}()
	New().NewTicker(0, func() {})
}

// Property: for any set of non-negative offsets, events fire in
// non-decreasing time order and the clock ends at the max offset.
func TestEventOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New()
		var fired []time.Duration
		var max time.Duration
		for _, o := range offsets {
			d := time.Duration(o) * time.Millisecond
			if d > max {
				max = d
			}
			s.At(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(offsets) == 0 || s.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStepsCounter(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Steps() != 7 {
		t.Fatalf("Steps = %d, want 7", s.Steps())
	}
}

func TestCancelAfterFireSemantics(t *testing.T) {
	s := New()
	e := s.At(time.Second, func() {})
	if e.Fired() || e.Canceled() {
		t.Fatal("fresh event already fired or canceled")
	}
	s.Run()
	if !e.Fired() {
		t.Fatal("Fired() = false after the event ran")
	}
	// Cancel after fire is a no-op: the callback ran, so the event must not
	// become indistinguishable from one that was removed while queued.
	s.Cancel(e)
	if e.Canceled() {
		t.Fatal("Cancel after fire marked the event canceled")
	}
	if !e.Fired() {
		t.Fatal("Cancel after fire cleared Fired()")
	}
}

func TestExactlyOneOfFiredCanceled(t *testing.T) {
	s := New()
	fire := s.At(time.Second, func() {})
	cancel := s.At(2*time.Second, func() {})
	s.Cancel(cancel)
	s.Run()
	if !fire.Fired() || fire.Canceled() {
		t.Errorf("fired event: Fired=%v Canceled=%v, want true/false", fire.Fired(), fire.Canceled())
	}
	if cancel.Fired() || !cancel.Canceled() {
		t.Errorf("canceled event: Fired=%v Canceled=%v, want false/true", cancel.Fired(), cancel.Canceled())
	}
}

// TestPendingLiveCount pins the O(1) Pending counter against every queue
// mutation: schedule, cancel (queued and already-fired), and step.
func TestPendingLiveCount(t *testing.T) {
	s := New()
	var es []*Event
	for i := 1; i <= 5; i++ {
		es = append(es, s.At(time.Duration(i)*time.Second, func() {}))
	}
	if s.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", s.Pending())
	}
	s.Cancel(es[2])
	s.Cancel(es[2]) // double cancel must not double-decrement
	if s.Pending() != 4 {
		t.Fatalf("pending after cancel = %d, want 4", s.Pending())
	}
	s.Step()
	if s.Pending() != 3 {
		t.Fatalf("pending after step = %d, want 3", s.Pending())
	}
	s.Cancel(es[0]) // already fired: no-op
	if s.Pending() != 3 {
		t.Fatalf("pending after cancel-after-fire = %d, want 3", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("pending after run = %d, want 0", s.Pending())
	}
}

func TestHookObservesSteps(t *testing.T) {
	s := New()
	var infos []StepInfo
	s.SetHook(func(si StepInfo) { infos = append(infos, si) })
	s.At(time.Second, func() {
		s.After(time.Second, func() {})
		s.After(2*time.Second, func() {})
	})
	s.Run()
	if len(infos) != 3 {
		t.Fatalf("hook saw %d events, want 3", len(infos))
	}
	first := infos[0]
	if first.At != time.Second || first.Pending != 2 {
		t.Errorf("first StepInfo = %+v, want At=1s Pending=2", first)
	}
	if last := infos[2]; last.At != 3*time.Second || last.Pending != 0 {
		t.Errorf("last StepInfo = %+v, want At=3s Pending=0", last)
	}
}

// TestHookAtAfterCallback pins StepInfo.At, which kernel trace spans end
// at: the hook runs after the callback, yet every event reports its fire
// time, both one whose callback re-arms it with Reset and a lane entry
// whose lane event was re-queued under the next entry before the entry's
// callback ran.
func TestHookAtAfterCallback(t *testing.T) {
	s := New()
	var ats []time.Duration
	s.SetHook(func(si StepInfo) { ats = append(ats, si.At) })
	var e *Event
	e = s.At(time.Second, func() {
		if s.Now() == time.Second {
			s.Reset(e, 5*time.Second)
		}
	})
	f := s.NewFIFO()
	f.Post(2*time.Second, func() {})
	f.Post(3*time.Second, func() {})
	s.Run()
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 5 * time.Second}
	if !reflect.DeepEqual(ats, want) {
		t.Fatalf("hook At = %v, want %v", ats, want)
	}
}

func TestHookMayNotSchedule(t *testing.T) {
	s := New()
	s.SetHook(func(StepInfo) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling from a hook did not panic")
			}
		}()
		s.After(time.Second, func() {})
	})
	s.At(time.Second, func() {})
	s.Run()
}

func TestSetHookNilRemoves(t *testing.T) {
	s := New()
	n := 0
	s.SetHook(func(StepInfo) { n++ })
	s.At(time.Second, func() {})
	s.Step()
	s.SetHook(nil)
	s.At(2*time.Second, func() {})
	s.Run()
	if n != 1 {
		t.Fatalf("hook ran %d times, want 1", n)
	}
}
