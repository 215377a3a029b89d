// Package cache provides the one shared cache implementation for the
// process: a generic, concurrency-safe, size-bounded LRU with
// singleflight-style loader deduplication.
//
// It replaces the hand-rolled sync.Map + per-entry sync.Once striping that
// used to live in internal/webpage (corpus and script-profile caches).
// That idiom had the right concurrency story — concurrent loads for
// different keys proceed in parallel, concurrent loads for the same key
// collapse into one execution — but it was unbounded: a fleet run touching
// a million seeds would pin a million corpora. This package keeps the
// concurrency contract and adds:
//
//   - entry- and byte-capped LRU eviction, so long-running servers
//     (cmd/qoesimd) hold a bounded working set no matter how many distinct
//     requests they see;
//   - hit/miss/load/eviction counters, exposed through the existing
//     trace.Metrics → internal/telemetry path via Publish;
//   - a process-wide registry of named caches so a service can render every
//     cache's stats on /metrics without knowing who created them.
//
// Determinism guarantee: a cache stores values only; whether a value is
// served from memory or rebuilt by the loader never changes the value
// itself, because every loader in this codebase is a pure function of its
// key. Eviction therefore cannot affect simulation output — pinned by
// byte-identical regression tests in internal/webpage and internal/engine.
// The counters, by contrast, are scheduling-dependent and must never be
// folded into per-cell metric registries; they are service-level telemetry
// only.
package cache

import (
	"fmt"
	"sort"
	"sync"

	"mobileqoe/internal/trace"
)

// Config sizes and names a cache.
type Config struct {
	// Name registers the cache in the process-wide registry used by
	// Publish. Empty means unregistered (private caches, tests).
	Name string
	// MaxEntries bounds the number of completed entries; <= 0 means
	// unlimited.
	MaxEntries int
	// MaxBytes bounds the sum of entry costs as reported by loaders;
	// <= 0 means unlimited. The most recently completed entry is never
	// evicted, so a single oversized value still caches (and evicts
	// everything else).
	MaxBytes int64
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits       int64 // served from memory, or attached to an in-flight load
	Misses     int64 // triggered a loader execution
	Loads      int64 // loader executions completed (success or failure)
	LoadErrors int64 // loader executions that returned an error
	Evictions  int64 // completed entries discarded to enforce the caps
	Entries    int   // completed entries currently resident
	Bytes      int64 // sum of resident entry costs
}

type entry[K comparable, V any] struct {
	key   K
	val   V
	bytes int64
	err   error
	ready chan struct{} // closed when the load completes
	done  bool          // completed successfully and resident in the LRU list

	prev, next *entry[K, V]
}

// Cache is a concurrency-safe, size-bounded LRU keyed by K.
//
// GetOrLoad collapses concurrent loads for the same key into a single
// loader execution (all callers receive the one result); loads for
// different keys run concurrently. Values must be treated as immutable by
// callers — they are shared across goroutines.
type Cache[K comparable, V any] struct {
	cfg Config

	mu         sync.Mutex
	m          map[K]*entry[K, V]
	head, tail *entry[K, V] // LRU list of completed entries; head = MRU
	bytes      int64
	entries    int

	hits, misses, loads, loadErrors, evictions int64
}

// New creates a cache and, when cfg.Name is non-empty, registers it for
// Publish. Names should be unique per process; the standard ones are
// "webpage.corpus", "webpage.profiles", and "script.regex".
func New[K comparable, V any](cfg Config) *Cache[K, V] {
	c := &Cache[K, V]{cfg: cfg, m: make(map[K]*entry[K, V])}
	if cfg.Name != "" {
		registerCache(cfg.Name, func() Stats { return c.Stats() })
	}
	return c
}

// GetOrLoad returns the cached value for key, or runs load to produce it.
// load reports the value and its cost in bytes (used against MaxBytes).
// Concurrent calls for the same key execute load exactly once; every caller
// receives that result. A failed load is not cached: the error is delivered
// to all callers attached to that execution, and the next GetOrLoad retries.
func (c *Cache[K, V]) GetOrLoad(key K, load func() (V, int64, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.hits++
		if e.done {
			c.moveToFront(e)
			v := e.val
			c.mu.Unlock()
			return v, nil
		}
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			var zero V
			return zero, e.err
		}
		c.mu.Lock()
		if c.m[key] == e && e.done {
			c.moveToFront(e)
		}
		c.mu.Unlock()
		return e.val, nil
	}
	e := &entry[K, V]{key: key, ready: make(chan struct{})}
	c.m[key] = e
	c.misses++
	c.mu.Unlock()

	// Run the loader outside the lock so distinct keys load in parallel.
	// If it panics, unblock waiters and remove the pending entry before
	// propagating, so the cache never deadlocks on a poisoned key.
	finished := false
	defer func() {
		if !finished {
			c.mu.Lock()
			c.loads++
			c.loadErrors++
			e.err = fmt.Errorf("cache: loader for %v panicked", key)
			delete(c.m, key)
			c.mu.Unlock()
			close(e.ready)
		}
	}()
	v, n, err := load()
	finished = true

	c.mu.Lock()
	c.loads++
	if err != nil {
		c.loadErrors++
		e.err = err
		delete(c.m, key)
		c.mu.Unlock()
		close(e.ready)
		var zero V
		return zero, err
	}
	e.val, e.bytes, e.done = v, n, true
	c.pushFront(e)
	c.entries++
	c.bytes += n
	c.evictLocked(e)
	c.mu.Unlock()
	close(e.ready)
	return v, nil
}

// Get returns the completed value for key without loading. In-flight loads
// are not waited for and count as misses.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok && e.done {
		c.hits++
		c.moveToFront(e)
		return e.val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Loads: c.loads,
		LoadErrors: c.loadErrors, Evictions: c.evictions,
		Entries: c.entries, Bytes: c.bytes,
	}
}

// evictLocked discards LRU-tail entries until both caps hold. The entry
// just completed (keep) survives even if it alone exceeds MaxBytes —
// evicting it would make an oversized value a permanent cache bypass.
// Pending entries are not in the LRU list and are never evicted.
func (c *Cache[K, V]) evictLocked(keep *entry[K, V]) {
	over := func() bool {
		if c.cfg.MaxEntries > 0 && c.entries > c.cfg.MaxEntries {
			return true
		}
		if c.cfg.MaxBytes > 0 && c.bytes > c.cfg.MaxBytes {
			return true
		}
		return false
	}
	for over() && c.tail != nil && c.tail != keep {
		e := c.tail
		c.unlink(e)
		delete(c.m, e.key)
		c.entries--
		c.bytes -= e.bytes
		c.evictions++
	}
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// Process-wide registry of named caches, rendered by Publish.
var (
	regMu     sync.Mutex
	registry  = map[string]func() Stats{}
	regNames  []string
	regSorted bool
)

func registerCache(name string, snapshot func() Stats) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("cache: duplicate cache name %q", name))
	}
	registry[name] = snapshot
	regNames = append(regNames, name)
	regSorted = false
}

// Publish writes every registered cache's counters into m under
// "cache.<name>.<counter>". Counters in a trace registry accumulate, so
// callers rendering a live endpoint should publish into a fresh registry
// per scrape. Cache counters are scheduling-dependent and must never be
// merged into per-cell simulation registries — service-level telemetry
// only.
func Publish(m *trace.Metrics) {
	regMu.Lock()
	if !regSorted {
		sort.Strings(regNames)
		regSorted = true
	}
	names := append([]string(nil), regNames...)
	snaps := make([]func() Stats, len(names))
	for i, n := range names {
		snaps[i] = registry[n]
	}
	regMu.Unlock()
	for i, n := range names {
		PublishStats(m, n, snaps[i]())
	}
}

// PublishStats writes one cache's snapshot into m under "cache.<name>.*".
// Exported so privately held caches (e.g. an engine's result cache) render
// through the same schema as registered ones.
func PublishStats(m *trace.Metrics, name string, s Stats) {
	p := "cache." + name + "."
	m.Counter(p + "hits").Add(float64(s.Hits))
	m.Counter(p + "misses").Add(float64(s.Misses))
	m.Counter(p + "loads").Add(float64(s.Loads))
	m.Counter(p + "load_errors").Add(float64(s.LoadErrors))
	m.Counter(p + "evictions").Add(float64(s.Evictions))
	m.Counter(p + "entries").Add(float64(s.Entries))
	m.Counter(p + "bytes").Add(float64(s.Bytes))
}
