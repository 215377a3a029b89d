package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// supSpec builds a tiny one-tuple-per-shard fleet for supervisor tests.
func supSpec(t *testing.T, shards int) *Runner {
	t.Helper()
	s, err := Parse([]byte(fmt.Sprintf(`{
		"name": "sup",
		"population": %d,
		"shards": %d,
		"pages": 2,
		"device_mix": [{"device": "pixel2", "weight": 1}],
		"workloads": [{"kind": "page", "weight": 1}]
	}`, shards, shards)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPanicContainedAndRetried(t *testing.T) {
	r := supSpec(t, 3)
	var mu sync.Mutex
	tried := map[int]int{}
	defer SetShardHook(func(ctx context.Context, shard, attempt int) error {
		mu.Lock()
		tried[shard]++
		mu.Unlock()
		if shard == 1 && attempt == 0 {
			panic("injected shard panic")
		}
		return nil
	})()
	var attempts []int
	res := Run(context.Background(), r, nil, Options{Parallel: 1, Retries: 2,
		Stream: func(ev Event) { attempts = append(attempts, ev.Attempt) }})
	if res.Completed != 3 || res.Failed != 0 {
		t.Fatalf("completed=%d failed=%d failures=%v", res.Completed, res.Failed, res.Failures)
	}
	// Events number attempts from 0, like runner events and run-log cells.
	if fmt.Sprint(attempts) != "[0 1 0]" {
		t.Errorf("event attempts %v, want [0 1 0]", attempts)
	}
	if tried[1] != 2 {
		t.Errorf("shard 1 ran %d attempts, want 2 (panic then success)", tried[1])
	}
	for _, sh := range res.Results {
		want := 1
		if sh.Shard == 1 {
			want = 2
		}
		if sh.Attempts != want {
			t.Errorf("shard %d Attempts=%d, want %d", sh.Shard, sh.Attempts, want)
		}
	}
}

func TestRetriesExhaustedRecordsFailure(t *testing.T) {
	r := supSpec(t, 3)
	boom := errors.New("persistent failure")
	defer SetShardHook(func(ctx context.Context, shard, attempt int) error {
		if shard == 1 {
			return boom
		}
		return nil
	})()
	var events []Event
	res := Run(context.Background(), r, nil, Options{
		Parallel: 1, Retries: 1,
		Stream: func(ev Event) { events = append(events, ev) },
	})
	if res.Completed != 2 || res.Failed != 1 || res.Interrupted {
		t.Fatalf("completed=%d failed=%d interrupted=%v", res.Completed, res.Failed, res.Interrupted)
	}
	if len(res.Failures) != 1 || res.Failures[0].Shard != 1 || res.Failures[0].Attempts != 2 {
		t.Fatalf("failures = %+v, want shard 1 after 2 attempts", res.Failures)
	}
	if !errors.Is(res.Failures[0].Err, boom) {
		t.Errorf("failure error %v does not wrap the hook error", res.Failures[0].Err)
	}
	// The failed shard must not pollute the merge.
	if res.Merged.Tuples != 2 {
		t.Errorf("merged tuples = %d, want 2 (failed shard excluded)", res.Merged.Tuples)
	}
	// Stream still saw every shard, in index order.
	if len(events) != 3 {
		t.Fatalf("stream got %d events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Shard != i {
			t.Errorf("stream event %d is shard %d, want in-order delivery", i, ev.Shard)
		}
		if ev.Done != i+1 || ev.Total != 3 {
			t.Errorf("event %d Done/Total = %d/%d, want %d/3", i, ev.Done, ev.Total, i+1)
		}
	}
	if events[1].Err == nil || events[0].Err != nil || events[2].Err != nil {
		t.Errorf("only shard 1's event should carry an error: %+v", events)
	}
}

func TestCircuitBreakerSkipsAfterConsecutiveFailures(t *testing.T) {
	r := supSpec(t, 12)
	defer SetShardHook(func(ctx context.Context, shard, attempt int) error {
		return errors.New("environment is on fire")
	})()
	var skipped []int
	res := Run(context.Background(), r, nil, Options{
		Parallel: 1,
		Progress: func(ev Event) {
			if ev.Err != nil && strings.Contains(ev.Err.Error(), "skipped: circuit breaker open") {
				skipped = append(skipped, ev.Shard)
			}
		},
	})
	if res.Failed != 8 || res.Skipped != 4 || res.Completed != 0 {
		t.Fatalf("failed=%d skipped=%d completed=%d, want 8/4/0", res.Failed, res.Skipped, res.Completed)
	}
	if len(skipped) != 4 {
		t.Fatalf("skip events for shards %v, want 4 of them", skipped)
	}
	if res.Interrupted {
		t.Error("breaker exhaustion is a completed (failed) run, not an interrupted one")
	}
}

func TestBreakerResetsOnSuccess(t *testing.T) {
	r := supSpec(t, 17)
	defer SetShardHook(func(ctx context.Context, shard, attempt int) error {
		if shard != 7 {
			return errors.New("flaky")
		}
		return nil
	})()
	// Shard 7's success after 7 failures resets the count, so shards 8..15
	// are the next 8 consecutive failures and only shard 16 is skipped.
	res := Run(context.Background(), r, nil, Options{Parallel: 1})
	if res.Skipped != 1 || res.Failed != 15 || res.Completed != 1 {
		t.Fatalf("skipped=%d failed=%d completed=%d, want 1/15/1", res.Skipped, res.Failed, res.Completed)
	}
}

func TestShardTimeoutRetries(t *testing.T) {
	r := supSpec(t, 2)
	defer SetShardHook(func(ctx context.Context, shard, attempt int) error {
		if shard == 0 && attempt == 0 {
			<-ctx.Done() // hang until the per-attempt timeout fires
			return ctx.Err()
		}
		return nil
	})()
	res := Run(context.Background(), r, nil, Options{
		Parallel: 1, Retries: 1, ShardTimeout: 20 * time.Millisecond,
	})
	if res.Completed != 2 || res.Failed != 0 {
		t.Fatalf("completed=%d failed=%d failures=%v", res.Completed, res.Failed, res.Failures)
	}
	for _, sh := range res.Results {
		if sh.Shard == 0 && sh.Attempts != 2 {
			t.Errorf("timed-out shard consumed %d attempts, want 2", sh.Attempts)
		}
	}
}

func TestStopAfterInterruptsCleanly(t *testing.T) {
	r := supSpec(t, 5)
	var events []Event
	res := Run(context.Background(), r, nil, Options{
		Parallel: 1, StopAfter: 2,
		Stream: func(ev Event) { events = append(events, ev) },
	})
	if !res.Interrupted {
		t.Fatal("StopAfter did not interrupt the run")
	}
	if res.Completed != 2 || res.Failed != 0 || res.Skipped != 0 {
		t.Fatalf("completed=%d failed=%d skipped=%d, want 2/0/0", res.Completed, res.Failed, res.Skipped)
	}
	// Every shard is announced even when aborted, so stream consumers (the
	// run log) always see the full sequence.
	if len(events) != 5 {
		t.Fatalf("stream got %d events, want 5", len(events))
	}
	aborted := 0
	for i, ev := range events {
		if ev.Shard != i {
			t.Errorf("event %d is shard %d, want in-order", i, ev.Shard)
		}
		if ev.Err != nil {
			aborted++
			if !errors.Is(ev.Err, context.Canceled) && !strings.Contains(ev.Err.Error(), "canceled") {
				t.Errorf("abort event error = %v, want a cancellation", ev.Err)
			}
		}
	}
	if aborted != 3 {
		t.Errorf("%d abort events, want 3", aborted)
	}
}

func TestParentCancelInterrupts(t *testing.T) {
	r := supSpec(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first shard
	res := Run(ctx, r, nil, Options{Parallel: 2})
	if !res.Interrupted || res.Completed != 0 {
		t.Fatalf("interrupted=%v completed=%d, want true/0", res.Interrupted, res.Completed)
	}
}

func TestOnCompleteErrorRetriesShard(t *testing.T) {
	r := supSpec(t, 2)
	var mu sync.Mutex
	calls := 0
	res := Run(context.Background(), r, nil, Options{
		Parallel: 1, Retries: 1,
		OnComplete: func(sh *ShardResult) error {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if sh.Shard == 0 && calls == 1 {
				return errors.New("disk briefly full")
			}
			return nil
		},
	})
	if res.Completed != 2 || res.Failed != 0 {
		t.Fatalf("completed=%d failed=%d failures=%v", res.Completed, res.Failed, res.Failures)
	}
	for _, sh := range res.Results {
		if sh.Shard == 0 && sh.Attempts != 2 {
			t.Errorf("shard 0 Attempts=%d, want 2 (checkpoint failure retried)", sh.Attempts)
		}
	}
}

func TestRestoredShardsAnnouncedFirstInOrder(t *testing.T) {
	r := supSpec(t, 4)
	// Fabricate restored results for shards 1 and 3 by actually running them.
	pre := Run(context.Background(), r, nil, Options{Parallel: 1})
	restored := map[int]*ShardResult{}
	for _, sh := range pre.Results {
		if sh.Shard == 1 || sh.Shard == 3 {
			restored[sh.Shard] = sh
		}
	}
	var order []int
	var restoredFlags []bool
	res := Run(context.Background(), r, restored, Options{
		Parallel: 1,
		Progress: func(ev Event) {
			order = append(order, ev.Shard)
			restoredFlags = append(restoredFlags, ev.Restored)
		},
	})
	if res.Restored != 2 || res.Completed != 2 {
		t.Fatalf("restored=%d completed=%d, want 2/2", res.Restored, res.Completed)
	}
	if res.Merged.Tuples != 4 {
		t.Fatalf("merged tuples = %d, want 4", res.Merged.Tuples)
	}
	// Restored shards announce before any fresh work, in index order.
	if len(order) != 4 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("announcement order %v, want restored shards 1,3 first", order)
	}
	if !restoredFlags[0] || !restoredFlags[1] || restoredFlags[2] || restoredFlags[3] {
		t.Errorf("restored flags %v, want [true true false false]", restoredFlags)
	}
}
