package sim

// Canceled reports whether Cancel removed the event before it fired.
func (e *Event) Canceled() bool { return e.canceled }

// Pending returns the number of queued (non-canceled) events, the count
// the Hook's StepInfo reports after each callback.
func (s *Sim) Pending() int { return s.pending }
