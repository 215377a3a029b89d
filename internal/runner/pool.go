package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// A failed cell waits backoffBase before its second attempt, doubling per
// further attempt up to backoffCap, or until the run's context ends.
const (
	backoffBase = 100 * time.Millisecond
	backoffCap  = 5 * time.Second
)

// Status says how a pool cell settled.
type Status int

const (
	CellOK         Status = iota // an attempt succeeded
	CellFailed                   // every attempt failed
	CellAborted                  // the context ended after a failed attempt
	CellNotStarted               // the context ended before the first attempt
	CellSkipped                  // Pool.Skip declined to start it
	CellRestored                 // settled before the run (Pool.Restored)
)

// Outcome is one settled cell of a Pool.
type Outcome[T any] struct {
	Index int
	// Done counts completion order in Progress calls and is Index+1 in
	// Stream calls; Total is the cell count.
	Done, Total int
	Status      Status
	Attempt     int // the attempt the outcome came from (0 = first try)
	// Value and Err are what the reported attempt returned. A CellNotStarted
	// Err wraps the context's error as "not started: <err>"; a CellSkipped
	// Err is Skip's. A CellAborted Err is the failure, not the cutoff.
	Value T
	Err   error
	// Elapsed is host wall time from the first attempt to the outcome,
	// backoff included (0 if no attempt ran).
	Elapsed time.Duration
}

// Pool runs N independent, indexed cells on a fixed set of workers: the one
// worker loop behind Run and the fleet supervisor. Workers draw indexes in
// ascending order. Each attempt runs under Timeout (if set) with panics
// recovered into errors, and a failed cell is retried up to Retries more
// times after a capped exponential backoff. Once ctx ends nothing new
// starts, and every cell is still announced exactly once.
type Pool[T any] struct {
	N       int
	Workers int // <= 0 means GOMAXPROCS; never more than the cells to run
	Retries int
	Timeout time.Duration // per attempt; 0 means none
	// Attempt runs one attempt of cell i; attempt counts from 0.
	Attempt func(ctx context.Context, i, attempt int) (T, error)
	// Restored, when non-nil, reports cells settled before the run (a
	// resumed checkpoint's shards): announced first, in index order, never
	// drawn.
	Restored func(i int) (T, bool)
	// Skip, when non-nil, is asked before a drawn cell's first attempt; an
	// error settles the cell as CellSkipped.
	Skip func(i int) error
	// Settle, when non-nil, runs on the worker as soon as a drawn cell
	// settles, before the worker draws its next index and before the
	// outcome is announced; it may rewrite the outcome's Err.
	Settle func(o *Outcome[T])
	// Progress and Stream run one at a time on Run's goroutine: Progress in
	// completion order, Stream in index order (through an Inorder window),
	// a cell's Progress call before its Stream call.
	Progress, Stream func(Outcome[T])
}

// Run settles every cell and returns the outcomes in index order.
func (p *Pool[T]) Run(ctx context.Context) []Outcome[T] {
	outs := make([]Outcome[T], p.N)
	var seq *Inorder[Outcome[T]]
	if p.Stream != nil {
		seq = NewInorder(p.N, func(o Outcome[T]) {
			o.Done = seq.Flushed()
			p.Stream(o)
		})
	}
	done := 0
	announce := func(o Outcome[T]) {
		done++
		o.Done, o.Total = done, p.N
		if p.Progress != nil {
			p.Progress(o)
		}
		if seq != nil {
			seq.Put(o.Index, o)
		}
	}
	left := p.N
	for i := range outs {
		outs[i].Index = i
		if p.Restored != nil {
			if v, ok := p.Restored(i); ok {
				outs[i].Value, outs[i].Status = v, CellRestored
				announce(outs[i])
				left--
			}
		}
	}

	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	settled := make(chan int, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, left); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < p.N; i = int(next.Add(1) - 1) {
				if outs[i].Status != CellRestored {
					p.settle(ctx, &outs[i])
					settled <- i
				}
			}
		}()
	}
	for ; left > 0; left-- {
		announce(outs[<-settled])
	}
	wg.Wait()
	return outs
}

// settle runs cell o.Index to its outcome, then hands it to Settle.
func (p *Pool[T]) settle(ctx context.Context, o *Outcome[T]) {
	if p.Settle != nil {
		defer p.Settle(o)
	}
	if err := ctx.Err(); err != nil {
		o.Status, o.Err = CellNotStarted, fmt.Errorf("not started: %w", err)
		return
	}
	if p.Skip != nil {
		if o.Err = p.Skip(o.Index); o.Err != nil {
			o.Status = CellSkipped
			return
		}
	}
	start := time.Now()
	defer func() { o.Elapsed = time.Since(start) }()
	for a := 0; ; a++ {
		o.Attempt = a
		if o.Value, o.Err = p.try(ctx, o.Index, a); o.Err == nil {
			o.Status = CellOK
			return
		}
		o.Status = CellAborted
		if ctx.Err() != nil {
			return
		}
		if a >= p.Retries {
			o.Status = CellFailed
			return
		}
		t := time.NewTimer(min(backoffBase<<min(a, 6), backoffCap))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return
		}
	}
}

// try runs one attempt, recovering a panic into an error so one crashing
// cell cannot take down the pool.
func (p *Pool[T]) try(ctx context.Context, i, attempt int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, err = zero, fmt.Errorf("attempt %d: panic: %v", attempt, r)
		}
	}()
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}
	return p.Attempt(ctx, i, attempt)
}
