package engine

import (
	"context"
	"sync"
)

// FollowBuf is an append-only byte buffer multiple readers can follow while
// a writer is still appending — the in-memory backing for a job's NDJSON
// progress log. A runlog.Writer writes into it from the job's worker; HTTP
// streamers replay from any offset and block for more via Next. Close marks
// the log complete and wakes every waiter.
type FollowBuf struct {
	mu      sync.Mutex
	buf     []byte
	closed  bool
	changed chan struct{} // closed and replaced on every append/Close
}

// NewFollowBuf returns an empty open buffer.
func NewFollowBuf() *FollowBuf {
	return &FollowBuf{changed: make(chan struct{})}
}

// Write appends p and wakes followers. Implements io.Writer for
// runlog.NewWriter.
func (b *FollowBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.buf = append(b.buf, p...)
	b.wakeLocked()
	b.mu.Unlock()
	return len(p), nil
}

// Close marks the log complete; it never fails and may be called again.
// Further writes are a programming error (the runlog.Writer's
// summary-last discipline already enforces this).
func (b *FollowBuf) Close() error {
	b.mu.Lock()
	b.closed = true
	b.wakeLocked()
	b.mu.Unlock()
	return nil
}

func (b *FollowBuf) wakeLocked() {
	close(b.changed)
	b.changed = make(chan struct{})
}

// next returns the bytes past off, whether the buffer is closed, and a
// channel that is closed on the next append or Close.
func (b *FollowBuf) next(off int) (data []byte, closed bool, changed <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if off > len(b.buf) {
		off = len(b.buf)
	}
	return b.buf[off:], b.closed, b.changed
}

// Follow replays the buffer from the beginning and then follows appends,
// calling emit for every non-empty chunk, until the buffer closes and is
// fully delivered or ctx is done. An emit error stops the follow (a gone
// HTTP client). Chunks split on append boundaries, so a consumer writing
// them verbatim reproduces the log bytes exactly.
func (b *FollowBuf) Follow(ctx context.Context, emit func([]byte) error) error {
	off := 0
	for {
		data, closed, changed := b.next(off)
		if len(data) > 0 {
			if err := emit(data); err != nil {
				return err
			}
			off += len(data)
			continue
		}
		if closed {
			return nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
