package sim

import (
	"math/rand"
	"testing"
	"time"
)

// Model-based testing: the kernel's 4-ary heap and its FIFO lanes are
// checked against a deliberately naive reference scheduler — a flat slice
// popped by linear scan over (at, seq) — across hundreds of random schedules
// that mix tracked and untracked events, lane posts, callback-time
// scheduling, cancels and resets. Because the reference has no heap, no
// lanes, no free list, and no pooling, any divergence in pop order, Pending
// counts, or hook observations points at the optimized structures.

type refEvent struct {
	at       time.Duration
	seq      uint64
	id       int
	canceled bool
}

type refSched struct {
	seq    uint64
	events []*refEvent
}

func (r *refSched) schedule(at time.Duration, id int) *refEvent {
	e := &refEvent{at: at, seq: r.seq, id: id}
	r.seq++
	r.events = append(r.events, e)
	return e
}

// reset mirrors Sim.Reset: a fresh sequence number and, for a fired or
// canceled event, a re-armed one.
func (r *refSched) reset(e *refEvent, at time.Duration) {
	queued := false
	for _, x := range r.events {
		queued = queued || x == e
	}
	if !queued {
		r.events = append(r.events, e)
	}
	e.at, e.seq, e.canceled = at, r.seq, false
	r.seq++
}

// popMin removes and returns the earliest live event by (at, seq), or nil.
func (r *refSched) popMin() *refEvent {
	best := -1
	for i, e := range r.events {
		if e.canceled {
			continue
		}
		if best < 0 || e.at < r.events[best].at ||
			(e.at == r.events[best].at && e.seq < r.events[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	e := r.events[best]
	r.events = append(r.events[:best], r.events[best+1:]...)
	return e
}

func (r *refSched) pending() int {
	n := 0
	for _, e := range r.events {
		if !e.canceled {
			n++
		}
	}
	return n
}

// TestModelRandomSchedules co-drives the kernel and the reference scheduler
// through ~500 random schedules. Events are tracked (At), untracked
// (PostAt), or posted on one of two FIFO lanes, mostly at or after the
// lane's tail and sometimes before it. Each event fires a callback that pops
// the reference, asserts the ids, Now and Steps agree, and on its first
// firing optionally schedules children (callback-time scheduling, exercising
// the free list and lane refills) and cancels or resets an earlier tracked
// event (exercising remove/fix, re-arming, and Cancel-after-Fired no-ops). A
// hook cross-checks Step ordinals, fire times, per-callback Scheduled counts,
// and live Pending counts against the model after every single event.
func TestModelRandomSchedules(t *testing.T) {
	const rounds = 500
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		s := New()
		ref := &refSched{}
		lanes := []*FIFO{s.NewFIFO(), s.NewFIFO()}
		laneLast := make([]time.Duration, len(lanes))

		handles := map[int]*Event{} // tracked sim events by id
		refByID := map[int]*refEvent{}
		firedOnce := map[int]bool{}
		nextID := 0
		var steps uint64
		var lastFired int

		var scheduleOne func(at time.Duration, depth int)
		scheduleOne = func(at time.Duration, depth int) {
			id := nextID
			nextID++
			kind := rng.Intn(3) // 0: At, 1: PostAt, 2: lane post
			lane := rng.Intn(len(lanes))
			if kind == 2 && rng.Float64() < 0.75 {
				at = max(at, laneLast[lane]) + time.Duration(rng.Intn(3))*time.Millisecond
			}
			var kids []time.Duration
			if depth < 3 && rng.Float64() < 0.35 {
				for k := 1 + rng.Intn(2); k > 0; k-- {
					kids = append(kids, time.Duration(rng.Intn(40))*time.Millisecond)
				}
			}
			target, action := -1, rng.Float64()
			if id > 0 && action < 0.35 {
				target = rng.Intn(id)
			}
			resetTo := time.Duration(rng.Intn(40)) * time.Millisecond
			fire := func() {
				re := ref.popMin()
				if re == nil {
					t.Fatalf("round %d: sim fired id %d but reference is empty", round, id)
				}
				if re.id != id {
					t.Fatalf("round %d: pop order diverged: sim fired id %d, reference expects id %d",
						round, id, re.id)
				}
				steps++
				if s.Now() != re.at || s.Steps() != steps {
					t.Fatalf("round %d: id %d fired at Now=%v Steps=%d, reference says %v, %d",
						round, id, s.Now(), s.Steps(), re.at, steps)
				}
				lastFired = id
				if firedOnce[id] {
					return // a reset re-fired it; its children already exist
				}
				firedOnce[id] = true
				for _, d := range kids {
					scheduleOne(s.Now()+d, depth+1)
				}
				h, ok := handles[target]
				switch {
				case !ok:
				case action < 0.2:
					s.Cancel(h)
					// Mirror in the model. Setting the flag on an
					// already-popped refEvent is a no-op, exactly like
					// Cancel after Fired.
					refByID[target].canceled = true
				default:
					s.Reset(h, s.Now()+resetTo)
					ref.reset(refByID[target], s.Now()+resetTo)
				}
			}
			switch kind {
			case 0:
				handles[id] = s.At(at, fire)
			case 1:
				s.PostAt(at, fire)
			default:
				lanes[lane].Post(at, fire)
				laneLast[lane] = max(laneLast[lane], at)
			}
			refByID[id] = ref.schedule(at, id)
		}

		lastAt := time.Duration(-1)
		s.SetHook(func(info StepInfo) {
			if s.Steps() != steps {
				t.Fatalf("round %d: hook saw Step %d, want %d", round, s.Steps(), steps)
			}
			if info.At < lastAt || info.At != s.Now() {
				t.Fatalf("round %d: hook At = %v after %v, Now %v", round, info.At, lastAt, s.Now())
			}
			lastAt = info.At
			if info.Pending != ref.pending() || s.Pending() != info.Pending {
				t.Fatalf("round %d: Pending = %d after id %d, reference says %d",
					round, info.Pending, lastFired, ref.pending())
			}
		})

		roots := 1 + rng.Intn(30)
		for i := 0; i < roots; i++ {
			scheduleOne(time.Duration(rng.Intn(100))*time.Millisecond, 0)
		}
		s.Run()

		if got := ref.popMin(); got != nil {
			t.Fatalf("round %d: sim drained but reference still holds id %d", round, got.id)
		}
		if s.Pending() != 0 {
			t.Fatalf("round %d: Pending = %d after drain", round, s.Pending())
		}

		// Cancel-after-Fired pinning: firing is final for every tracked
		// event that ran; canceling it afterwards must not rewrite history
		// even though the free list is in play.
		for id, h := range handles {
			if h.Fired() {
				s.Cancel(h)
				if !h.Fired() || h.Canceled() {
					t.Fatalf("round %d: Cancel after Fired rewrote event %d: fired=%v canceled=%v",
						round, id, h.Fired(), h.Canceled())
				}
			}
		}
	}
}

// TestRecycledEventFreshness exercises the free list directly: untracked
// events recycled by the kernel must come back from alloc with fully fresh
// state.
func TestRecycledEventFreshness(t *testing.T) {
	s := New()
	// Pump the free list with untracked events.
	for i := 0; i < 100; i++ {
		s.PostAfter(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()

	// Every new tracked event drawn from the free list must look brand new.
	for i := 0; i < 100; i++ {
		e := s.After(time.Millisecond, func() {})
		if e.Fired() || e.Canceled() || !e.Queued() {
			t.Fatalf("recycled event %d has stale state: fired=%v canceled=%v queued=%v",
				i, e.Fired(), e.Canceled(), e.Queued())
		}
		if e.When() != s.Now()+time.Millisecond {
			t.Fatalf("recycled event %d has stale time %v", i, e.When())
		}
		s.Cancel(e)
	}
}

// TestResetQueuedMoves reprograms a queued event earlier and later and
// checks it fires exactly once at the final time.
func TestResetQueuedMoves(t *testing.T) {
	s := New()
	var firedAt []time.Duration
	e := s.After(10*time.Millisecond, func() { firedAt = append(firedAt, s.Now()) })
	s.Reset(e, 20*time.Millisecond)
	s.Reset(e, 5*time.Millisecond)
	s.Run()
	if len(firedAt) != 1 || firedAt[0] != 5*time.Millisecond {
		t.Fatalf("firedAt = %v, want exactly [5ms]", firedAt)
	}
}

// TestResetRearmsFired turns one event into a recurring timer.
func TestResetRearmsFired(t *testing.T) {
	s := New()
	var firedAt []time.Duration
	var e *Event
	e = s.After(time.Millisecond, func() {
		firedAt = append(firedAt, s.Now())
		if len(firedAt) < 3 {
			s.Reset(e, s.Now()+time.Millisecond)
		}
	})
	s.Run()
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if len(firedAt) != len(want) {
		t.Fatalf("fired %d times, want %d", len(firedAt), len(want))
	}
	for i := range want {
		if firedAt[i] != want[i] {
			t.Fatalf("firing %d at %v, want %v", i, firedAt[i], want[i])
		}
	}
	if !e.Fired() || e.Canceled() {
		t.Fatalf("after run: fired=%v canceled=%v", e.Fired(), e.Canceled())
	}
}

// TestResetFreshSeq: a Reset event scheduled to the same instant as an
// already-queued event fires after it, exactly like a newly scheduled one.
func TestResetFreshSeq(t *testing.T) {
	s := New()
	var order []string
	reset := s.At(time.Millisecond, func() { order = append(order, "reset") })
	s.At(10*time.Millisecond, func() { order = append(order, "other") })
	s.Reset(reset, 10*time.Millisecond) // re-timed after "other" was scheduled
	s.Run()
	if len(order) != 2 || order[0] != "other" || order[1] != "reset" {
		t.Fatalf("order = %v, want [other reset]", order)
	}
}

// TestResetCanceledRearms: Reset revives a canceled event.
func TestResetCanceledRearms(t *testing.T) {
	s := New()
	n := 0
	e := s.After(time.Millisecond, func() { n++ })
	s.Cancel(e)
	s.Reset(e, 2*time.Millisecond)
	if e.Canceled() {
		t.Fatal("Reset left the event canceled")
	}
	s.Run()
	if n != 1 {
		t.Fatalf("fired %d times, want 1", n)
	}
	if !e.Fired() {
		t.Fatal("Fired() false after firing")
	}
}

func TestResetPastPanics(t *testing.T) {
	s := New()
	e := s.After(time.Millisecond, func() {})
	s.PostAfter(5*time.Millisecond, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic resetting into the past")
		}
	}()
	s.Reset(e, time.Millisecond)
}

// TestUntrackedResetFromCallback: an untracked event that re-arms itself via
// Reset from its own callback must not be reclaimed by the kernel while
// queued. (The ticker relies on exactly this.)
func TestUntrackedResetFromCallback(t *testing.T) {
	s := New()
	ticks := 0
	tk := s.NewTicker(time.Millisecond, func() { ticks++ })
	s.PostAt(10*time.Millisecond+time.Microsecond, func() { tk.Stop() })
	// Churn the free list alongside the ticker so a wrongly recycled ticker
	// event would be observably corrupted.
	for i := 1; i <= 10; i++ {
		s.PostAt(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
}
