package rex

// Match span utilities built on the Pike VM: non-overlapping global
// iteration (JavaScript's /g semantics, which the page workloads' list
// operations rely on).

// Span is one match location in bytes.
type Span struct{ Start, End int }

// FindAll returns up to limit non-overlapping leftmost matches, scanning
// left to right (limit <= 0 means no limit), along with the total engine
// steps consumed.
func (p *Prog) FindAll(s string, limit int) ([]Span, int64) {
	var spans []Span
	var steps int64
	pos := 0
	for pos <= len(s) {
		if limit > 0 && len(spans) >= limit {
			break
		}
		r := p.pike(s[pos:])
		steps += r.Steps
		if !r.Matched {
			break
		}
		sp := Span{Start: pos + r.Start, End: pos + r.End}
		spans = append(spans, sp)
		if sp.End == sp.Start {
			// Empty match: advance one byte so iteration terminates.
			pos = sp.End + 1
		} else {
			pos = sp.End
		}
		if p.anchoredStart {
			break // ^-anchored patterns cannot match later
		}
	}
	return spans, steps
}
