package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// laneRun drives one schedule decoded from fuzz bytes. With lanes on, every
// lane post goes through a FIFO; with lanes off, the same posts go through
// PostAt. Everything else (tracked At events, Cancel, Reset, a hook, a
// RunUntil before the final Run) is identical, so the two logs must match.
type laneRun struct {
	s        *Sim
	lanes    []*FIFO // nil entries post through PostAt
	laneLast []time.Duration
	data     []byte
	pos      int
	handles  []*Event
	nextID   int
	log      []string
}

// next returns the next input byte, or 0 once the input is exhausted, which
// decodes as "schedule nothing more" and so bounds every schedule.
func (r *laneRun) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

// post schedules one event chosen by the input: a lane post (mostly at or
// after the lane's tail, sometimes before it), an untracked PostAt, or a
// tracked At.
func (r *laneRun) post() {
	id := r.nextID
	r.nextID++
	b, d := r.next(), time.Duration(r.next()%16)*time.Millisecond
	at := r.s.Now() + d
	fn := func() { r.fire(id) }
	switch b % 4 {
	case 0, 1:
		k := b / 4 % len(r.lanes)
		if b&0x80 == 0 {
			at = max(at, r.laneLast[k]) + d/4
		}
		r.laneLast[k] = max(r.laneLast[k], at)
		if f := r.lanes[k]; f != nil {
			f.Post(at, fn)
		} else {
			r.s.PostAt(at, fn)
		}
	case 2:
		r.s.PostAt(at, fn)
	default:
		r.handles = append(r.handles, r.s.At(at, fn))
	}
}

func (r *laneRun) fire(id int) {
	s := r.s
	r.log = append(r.log, fmt.Sprintf("fire %d now=%v steps=%d pending=%d", id, s.Now(), s.Steps(), s.Pending()))
	op := r.next()
	for k := op % 4; k > 0; k-- {
		r.post()
	}
	if len(r.handles) == 0 {
		return
	}
	h := r.handles[r.next()%len(r.handles)]
	switch op / 4 % 4 {
	case 1:
		s.Cancel(h)
	case 2:
		s.Reset(h, s.Now()+time.Duration(r.next()%16)*time.Millisecond)
	}
}

func runLaneSchedule(data []byte, lanes bool) []string {
	r := &laneRun{s: New(), lanes: make([]*FIFO, 3), laneLast: make([]time.Duration, 3), data: data}
	if lanes {
		for k := range r.lanes {
			r.lanes[k] = r.s.NewFIFO()
		}
	}
	r.s.SetHook(func(si StepInfo) {
		r.log = append(r.log, fmt.Sprintf("hook %+v", si))
	})
	for k := 1 + r.next()%16; k > 0; k-- {
		r.post()
	}
	r.s.RunUntil(time.Duration(r.next()) * time.Millisecond)
	r.log = append(r.log, fmt.Sprintf("until now=%v steps=%d pending=%d", r.s.Now(), r.s.Steps(), r.s.Pending()))
	r.s.Run()
	r.log = append(r.log, fmt.Sprintf("end now=%v steps=%d pending=%d", r.s.Now(), r.s.Steps(), r.s.Pending()))
	return r.log
}

// FuzzLane holds FIFO lanes to the PostAt-only kernel: the same decoded
// schedule must fire the same events at the same instants with identical
// Now, Steps, Pending and hook StepInfo either way.
func FuzzLane(f *testing.F) {
	f.Add([]byte{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		b := make([]byte, 256)
		rng.Read(b)
		for j := range b {
			b[j] &= 0x9f // short delays, so instants tie and lanes stay busy
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := runLaneSchedule(data, false)
		got := runLaneSchedule(data, true)
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("lane run diverged at record %d of %d:\n got %q\nwant %q", i, len(want), got[min(i, len(got)-1)], want[i])
				}
			}
			t.Fatalf("lane run logged %d records, PostAt run %d", len(got), len(want))
		}
	})
}

// TestFIFOWrapAndOvertake fills a lane past its first ring size while it is
// draining, so the ring wraps and grows, and posts one delivery that
// overtakes the tail; fire order must follow time, then post order.
func TestFIFOWrapAndOvertake(t *testing.T) {
	s := New()
	f := s.NewFIFO()
	var got []int
	post := func(id int, at time.Duration) { f.Post(at, func() { got = append(got, id) }) }
	for i := 0; i < 6; i++ {
		post(i, time.Duration(i)*time.Millisecond)
	}
	s.PostAt(3*time.Millisecond, func() {
		for i := 6; i < 20; i++ {
			post(i, time.Duration(i)*time.Millisecond)
		}
		post(20, 4*time.Millisecond) // before the tail: rides the heap
	})
	s.Run()
	want := []int{0, 1, 2, 3, 4, 20, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fire order = %v, want %v", got, want)
	}
	if s.Steps() != 22 || s.Pending() != 0 {
		t.Fatalf("Steps = %d, Pending = %d; want 22, 0", s.Steps(), s.Pending())
	}
}
