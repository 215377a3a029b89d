package sim

import "time"

// FIFO is a delivery lane: a queue of fire-and-forget events whose fire
// times never decrease, such as the packets in flight on one network link.
// Only the lane's head sits in the kernel's heap, as one kernel-owned Event,
// so a lane of any length costs the heap a single entry.
//
// Every entry keeps the sequence number it was given when posted, and when
// the head fires the lane re-queues its event under the next entry's
// (at, seq). Because (at, seq) is a total order and each lane is sorted by
// it, events fire in exactly the order PostAt would have given them, and
// the pending count, Steps and the Hook's StepInfo count every entry as one
// event.
type FIFO struct {
	s    *Sim
	ev   *Event      // the head's heap entry; queued iff the lane is non-empty
	ring []fifoEntry // circular buffer, length a power of two
	head int         // ring index of the earliest entry
	n    int         // entries in the lane
}

type fifoEntry struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// NewFIFO returns an empty delivery lane bound to s.
func (s *Sim) NewFIFO() *FIFO {
	f := &FIFO{s: s}
	f.ev = &Event{fn: f.fire, index: -1}
	return f
}

// Post schedules fn at absolute virtual time t, like Sim.PostAt. A time
// earlier than the lane's last entry cannot join the sorted lane and goes to
// Sim.PostAt instead, which keeps the same fire order.
func (f *FIFO) Post(t time.Duration, fn func()) {
	s := f.s
	if f.n > 0 && t < f.ring[(f.head+f.n-1)&(len(f.ring)-1)].at {
		s.PostAt(t, fn)
		return
	}
	s.check(t, fn)
	if f.n == len(f.ring) {
		f.grow()
	}
	e := fifoEntry{at: t, seq: s.seq, fn: fn}
	s.seq++
	s.pending++
	f.ring[(f.head+f.n)&(len(f.ring)-1)] = e
	f.n++
	if f.n == 1 {
		f.ev.at, f.ev.seq = e.at, e.seq
		s.push(f.ev)
	}
}

// grow doubles the ring, unwrapping it so the head is at index 0.
func (f *FIFO) grow() {
	ring := make([]fifoEntry, max(2*len(f.ring), 8))
	for i := 0; i < f.n; i++ {
		ring[i] = f.ring[(f.head+i)&(len(f.ring)-1)]
	}
	f.ring, f.head = ring, 0
}

// fire is the lane event's callback: it takes the head entry off the lane,
// re-queues the lane event under the next entry, and runs the callback.
func (f *FIFO) fire() {
	x := f.ring[f.head]
	f.ring[f.head] = fifoEntry{}
	f.head = (f.head + 1) & (len(f.ring) - 1)
	f.n--
	if f.n > 0 {
		next := &f.ring[f.head]
		f.ev.at, f.ev.seq = next.at, next.seq
		f.s.push(f.ev)
	}
	x.fn()
}
