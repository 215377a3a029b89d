package runner

// Inorder re-sequences indexed completions into index order: values arrive
// in whatever order a worker pool finishes them, and emit fires exactly once
// per index, in strictly ascending index order, as soon as the contiguous
// prefix is complete. This is the mechanism behind Pool.Stream, and so
// behind the deterministic Options.Stream contract and the fleet's shard
// event stream.
// NewInorder allocates one pointer slot per index up front, so its fixed
// cost grows with n; callers bound n (engine.MaxCells, the fleet's shard
// cap). Buffered values are bounded by the out-of-order window, because a
// flushed slot is released.
//
// Not safe for concurrent use — Put must be called from a single goroutine
// (the collector that drains the pool's results channel).
type Inorder[T any] struct {
	emit    func(T)
	pending []*T
	next    int
}

// NewInorder sequences indexes [0, n) into emit.
func NewInorder[T any](n int, emit func(T)) *Inorder[T] {
	return &Inorder[T]{emit: emit, pending: make([]*T, n)}
}

// Put hands over the value for index i (each index at most once). Emits the
// value immediately if i extends the contiguous flushed prefix, along with
// any buffered successors that now become contiguous.
func (q *Inorder[T]) Put(i int, v T) {
	q.pending[i] = &v
	for q.next < len(q.pending) && q.pending[q.next] != nil {
		out := *q.pending[q.next]
		q.pending[q.next] = nil // release the value: held values ∝ reorder window
		q.next++
		q.emit(out)
	}
}

// Flushed returns how many values have been emitted so far (equivalently,
// the next index the stream is waiting on).
func (q *Inorder[T]) Flushed() int { return q.next }
