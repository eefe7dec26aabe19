// Package cache implements the content-addressed analysis cache of the
// mapping service: deterministic, pure results (whole analyze, flow and
// DSE responses, and every state-space analysis through Analyzer)
// memoized under content keys in one bounded LRU, with single-flight
// deduplication so N identical concurrent requests trigger exactly one
// computation.
package cache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"mamps/internal/statespace"
)

// DefaultCapacity is the entry bound used when New is given a
// non-positive capacity.
const DefaultCapacity = 4096

// Stats is a snapshot of the cache counters (JSON names match the
// service's camelCase response convention).
type Stats struct {
	// Hits counts lookups answered from a completed entry.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that had to compute.
	Misses uint64 `json:"misses"`
	// Dedup counts lookups that joined an in-flight computation instead
	// of starting their own (the single-flight savings).
	Dedup uint64 `json:"dedup"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries and InFlight are current sizes, not counters.
	Entries  int `json:"entries"`
	InFlight int `json:"inFlight"`
}

// entry is a completed, cached value.
type entry struct {
	key string
	val any
}

// call is an in-flight computation that followers can wait on.
type call struct {
	done chan struct{}
	val  any
	err  error
	// shared marks a result the followers take as theirs (see Do).
	shared bool
}

// Cache is a bounded, content-addressed memoization cache with
// single-flight deduplication. All methods are safe for concurrent use.
//
// Errors are never cached: a failed computation is retried by the next
// caller. Every caller that joined a failed computation shares its
// error, unless the failure was the leader's own — its cancellation,
// its deadline or its state budget — and its followers compute again
// (see Do).
type Cache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // front = most recently used; values are *entry
	entries  map[string]*list.Element
	inflight map[string]*call
	stats    Stats
}

// New returns a cache bounded to capacity completed entries (LRU
// eviction). A non-positive capacity selects DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*call),
	}
}

// Get returns the cached value for key, if present, marking it recently
// used. It does not join in-flight computations.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Do returns the value for key, computing it with fn on a miss. Identical
// concurrent keys are deduplicated: one caller (the leader) runs fn, the
// others block until it finishes or their own context is done. hit
// reports whether the value was obtained without running fn in this call
// (a completed entry or a joined in-flight computation).
//
// fn runs on the leader's goroutine, so it should honour the leader's
// context itself (e.g. via statespace.Options.Interrupt). A panic in fn
// does not propagate: the leader and its followers get a *PanicError.
// The followers of a failed fn share its error — the key's failure, such
// as an infeasible request or a full job queue, is theirs too — unless
// the failure is the leader's own: its context ended before fn returned,
// the error wraps context.Canceled or context.DeadlineExceeded, or it is
// a *statespace.BudgetError (keys leave the state budget out, and
// callers ask for different ones). Such a follower joins the next leader
// or becomes the leader itself, under its own context.
func (c *Cache) Do(ctx context.Context, key string, fn func() (any, error)) (val any, hit bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			c.stats.Hits++
			v := el.Value.(*entry).val
			c.mu.Unlock()
			return v, true, nil
		}
		cl, ok := c.inflight[key]
		if !ok {
			break // lead, with c.mu held
		}
		c.stats.Dedup++
		c.mu.Unlock()
		select {
		case <-cl.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if cl.shared {
			return cl.val, true, cl.err
		}
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.stats.Misses++
	c.mu.Unlock()

	defer func() {
		if p := recover(); p != nil {
			// Release the followers with the same error, or they would
			// block forever on a key nobody is computing; nothing is
			// stored, so the next Do recomputes.
			cl.val, cl.err, cl.shared = nil, &PanicError{Value: p, Stack: debug.Stack()}, true
			c.finish(key, cl, false)
			val, hit, err = nil, false, cl.err
		}
	}()
	cl.val, cl.err = fn()
	cl.shared = cl.err == nil || !ownFailure(ctx, cl.err)
	c.finish(key, cl, cl.err == nil)
	return cl.val, false, cl.err
}

// ownFailure reports whether a leader's error is its own rather than
// its key's, so that its followers compute again (see Do). A panic is
// always the key's.
func ownFailure(ctx context.Context, err error) bool {
	var pe *PanicError
	var be *statespace.BudgetError
	return !errors.As(err, &pe) && (ctx.Err() != nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.As(err, &be))
}

// PanicError is the error Do returns when its computation panicked. Value
// is what the computation panicked with, Stack the panicking goroutine's
// stack.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("cache: computation panicked: %v", e.Value)
}

// finish publishes a completed call and stores it on success.
func (c *Cache) finish(key string, cl *call, store bool) {
	c.mu.Lock()
	delete(c.inflight, key)
	if store {
		el := c.lru.PushFront(&entry{key: key, val: cl.val})
		c.entries[key] = el
		for c.lru.Len() > c.capacity {
			oldest := c.lru.Back().Value.(*entry)
			c.lru.Remove(c.lru.Back())
			delete(c.entries, oldest.key)
			c.stats.Evictions++
		}
	}
	c.mu.Unlock()
	close(cl.done)
}

// Len returns the number of completed entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	s.InFlight = len(c.inflight)
	return s
}
