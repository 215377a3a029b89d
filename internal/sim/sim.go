// Package sim provides a deterministic discrete-event simulation kernel.
//
// A Sim owns a virtual clock and a priority queue of events. Events scheduled
// for the same instant fire in the order they were scheduled, which keeps
// whole-system runs reproducible regardless of map iteration or goroutine
// scheduling. The kernel is single-threaded by design: all model code runs
// inside event callbacks.
//
// # Virtual-time guarantee
//
// The kernel never reads the wall clock, and no model code may either: every
// timestamp observable from inside a simulation (Now, Event.When, the Hook's
// StepInfo, whose At is the fire time of the event it describes) is virtual
// time derived purely from the scheduled event sequence.
// Two runs of the same model at the same seed therefore execute the same
// events at the same virtual instants, which is what makes whole-run
// artifacts — tables, metrics registries, exported traces — byte-identical
// and safe for golden tests.
//
// # Event pooling
//
// Simulations schedule millions of short-lived events, so the kernel keeps a
// free list and recycles Event objects whenever it can prove no caller still
// holds a handle:
//
//   - PostAt/PostAfter schedule untracked events: no *Event is returned, so
//     the kernel reclaims the object as soon as the callback has run. Use
//     them for fire-and-forget work (the overwhelming majority of model
//     scheduling).
//   - Reset reprograms an existing event in place — queued, fired, or
//     canceled — so a recurring timer (a thread-completion event, a ticker)
//     allocates exactly once over its lifetime.
//   - A FIFO lane (NewFIFO) carries fire-and-forget events whose times never
//     decrease, such as one link's packets in flight. Its entries are not
//     Event objects: they wait in a ring buffer, and only the lane's head
//     sits in the heap, as one kernel-owned event re-queued under the next
//     entry each time an entry fires. Entries keep the sequence numbers
//     they were posted with and each counts as one pending event and one
//     step, so fire order, the pending count, Steps and StepInfo are
//     exactly as with PostAt.
//
// Events obtained from At/After and never Reset behave exactly as
// before: the kernel never reclaims an event a caller may still reference,
// so Cancel-after-Fired pinning and post-run When() inspection keep working.
package sim

import (
	"fmt"
	"time"
)

// Event is a scheduled callback. The zero value is not useful; obtain events
// from Sim.At or Sim.After.
type Event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	index     int  // heap index, -1 when not queued
	untracked bool // scheduled via PostAt/PostAfter; recycled after firing
	canceled  bool
	fired     bool
}

// When reports the virtual time at which the event fires (or would have
// fired, if canceled).
func (e *Event) When() time.Duration { return e.at }

// Fired reports whether the event's callback has executed. A fired event
// is never canceled (see Cancel); while queued, it is neither.
func (e *Event) Fired() bool { return e.fired }

// Queued reports whether the event is currently in the queue awaiting its
// fire time.
func (e *Event) Queued() bool { return e.index >= 0 }

// StepInfo describes one executed event, as seen by a Hook after the
// event's callback returned. All times are virtual.
type StepInfo struct {
	// At is the event's fire time (== Now during the hook), read before
	// the callback ran: a callback that re-arms its own event with Reset,
	// or a FIFO lane re-queued under its next entry, does not move it.
	At      time.Duration
	Pending int // queue depth after the callback ran
}

// Hook observes kernel activity. It runs synchronously after every event
// callback, so it must not mutate simulation state; scheduling from a hook
// panics via a re-entrancy guard in Step.
type Hook func(StepInfo)

// Sim is a discrete-event simulator. The zero value is ready to use.
type Sim struct {
	now     time.Duration
	queue   []*Event // 4-ary min-heap ordered by (at, seq)
	free    []*Event // recycled events awaiting reuse
	seq     uint64
	steps   uint64
	pending int // live count of queued, non-canceled events
	hook    Hook
	inHook  bool
}

// SetHook installs (or with nil, removes) the kernel observation hook.
// When no hook is installed the per-event overhead is a single nil check.
func (s *Sim) SetHook(h Hook) { s.hook = h }

// New returns a simulator with the clock at zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Steps returns the number of events executed so far.
func (s *Sim) Steps() uint64 { return s.steps }

// alloc returns a blank event, reusing the free list when possible.
func (s *Sim) alloc() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &Event{}
}

// check panics on a schedule request no model may make: a time in the past,
// a nil callback, or scheduling from inside a Hook.
func (s *Sim) check(t time.Duration, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	if s.inHook {
		panic("sim: scheduling from inside a Hook")
	}
}

// schedule validates and enqueues a fresh event.
func (s *Sim) schedule(t time.Duration, fn func(), untracked bool) *Event {
	s.check(t, fn)
	e := s.alloc()
	e.at, e.seq, e.fn, e.index = t, s.seq, fn, -1
	e.untracked, e.canceled, e.fired = untracked, false, false
	s.seq++
	s.pending++
	s.push(e)
	return e
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: that is always a model bug, and silently reordering time would make
// every downstream measurement unreliable.
func (s *Sim) At(t time.Duration, fn func()) *Event {
	return s.schedule(t, fn, false)
}

// After schedules fn to run d from now. Negative d panics via At.
func (s *Sim) After(d time.Duration, fn func()) *Event {
	return s.schedule(s.now+d, fn, false)
}

// PostAt schedules fn at absolute virtual time t as an untracked event: no
// handle is returned, the event cannot be canceled, and the kernel recycles
// the Event object immediately after the callback runs. This is the
// allocation-free path for fire-and-forget scheduling; use At when the
// caller needs to Cancel or inspect the event.
func (s *Sim) PostAt(t time.Duration, fn func()) {
	s.schedule(t, fn, true)
}

// PostAfter schedules fn to run d from now as an untracked event (see
// PostAt).
func (s *Sim) PostAfter(d time.Duration, fn func()) {
	s.schedule(s.now+d, fn, true)
}

// Reset reprograms e to fire at absolute virtual time t, keeping its
// callback. A queued event moves to its new time; a fired or canceled event
// is re-armed and enqueued again. In both cases the event receives a fresh
// scheduling sequence number, so same-instant FIFO ordering treats it
// exactly like a newly scheduled event.
//
// Reset is the zero-allocation alternative to Cancel+After for recurring
// timers. The caller must be the event's sole owner: re-arming an event
// another component might still Cancel would redirect that Cancel at the
// new incarnation.
func (s *Sim) Reset(e *Event, t time.Duration) {
	if e == nil {
		panic("sim: Reset of nil event")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: resetting event to %v before now %v", t, s.now))
	}
	if s.inHook {
		panic("sim: scheduling from inside a Hook")
	}
	e.seq = s.seq
	s.seq++
	if e.index >= 0 { // queued: move in place
		e.at = t
		s.fix(e.index)
		return
	}
	e.at = t
	e.canceled, e.fired = false, false
	s.pending++
	s.push(e)
}

// Cancel removes an event from the queue. Canceling an already-fired event
// is a no-op that leaves it fired and not canceled — the callback ran, and
// pretending otherwise would corrupt any accounting keyed on it.
// Canceling an already-canceled event is also a no-op.
func (s *Sim) Cancel(e *Event) {
	if e == nil || e.canceled || e.fired {
		return
	}
	e.canceled = true
	if e.index >= 0 {
		s.pending--
		s.remove(e.index)
	}
}

// Step executes the earliest pending event, advancing the clock to its time.
// It returns false when the queue is empty.
func (s *Sim) Step() bool {
	for len(s.queue) > 0 {
		e := s.popMin()
		if e.canceled {
			continue
		}
		s.pending--
		e.fired = true
		s.now = e.at
		s.steps++
		if s.hook == nil {
			e.fn()
		} else {
			at := e.at
			e.fn()
			s.inHook = true
			s.hook(StepInfo{At: at, Pending: s.pending})
			s.inHook = false
		}
		// An untracked event has no outstanding handle, so unless its own
		// callback re-armed it (a Reset from inside fn), it can be reused
		// by the next schedule.
		if e.untracked && e.index < 0 {
			e.fn = nil
			s.free = append(s.free, e)
		}
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with fire times <= t and then advances the clock
// to exactly t. Events scheduled after t remain queued.
func (s *Sim) RunUntil(t time.Duration) {
	for len(s.queue) > 0 && s.queue[0].at <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// ----- event queue: hand-rolled 4-ary min-heap -----
//
// The queue is a 4-ary heap ordered by (at, seq): half the depth of a
// binary heap, sift-down comparisons that stay inside one cache line of
// children, and no container/heap interface dispatch on the hot path.
// Determinism is unaffected — (at, seq) is a total order, so pop order is
// identical for any correct heap arity.

const heapArity = 4

func (s *Sim) less(i, j int) bool {
	a, b := s.queue[i], s.queue[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Sim) swap(i, j int) {
	q := s.queue
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (s *Sim) push(e *Event) {
	e.index = len(s.queue)
	s.queue = append(s.queue, e)
	s.up(e.index)
}

func (s *Sim) popMin() *Event {
	q := s.queue
	e := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[0].index = 0
	q[last] = nil
	s.queue = q[:last]
	if last > 0 {
		s.down(0)
	}
	e.index = -1
	return e
}

// remove deletes the event at heap index i.
func (s *Sim) remove(i int) {
	q := s.queue
	last := len(q) - 1
	e := q[i]
	if i != last {
		q[i] = q[last]
		q[i].index = i
	}
	q[last] = nil
	s.queue = q[:last]
	if i < last {
		s.fix(i)
	}
	e.index = -1
}

// fix restores heap order after the event at index i changed priority.
func (s *Sim) fix(i int) {
	if !s.down(i) {
		s.up(i)
	}
}

func (s *Sim) up(i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !s.less(i, parent) {
			break
		}
		s.swap(i, parent)
		i = parent
	}
}

// down sifts index i toward the leaves; it reports whether i moved.
func (s *Sim) down(i int) bool {
	start := i
	n := len(s.queue)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s.less(c, min) {
				min = c
			}
		}
		if !s.less(min, i) {
			break
		}
		s.swap(i, min)
		i = min
	}
	return i > start
}
