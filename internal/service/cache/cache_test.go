package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mamps/internal/statespace"
)

// TestSingleFlight is the acceptance test of the dedup guarantee: N
// goroutines requesting one key trigger exactly one computation. Run
// under -race it also exercises the cache's synchronization.
func TestSingleFlight(t *testing.T) {
	const n = 64
	c := New(16)
	var computations atomic.Int64
	started := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]any, n)
	hits := make([]bool, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-started
			results[i], hits[i], errs[i] = c.Do(context.Background(), "k", func() (any, error) {
				computations.Add(1)
				time.Sleep(20 * time.Millisecond) // let the others pile up
				return 42, nil
			})
		}(i)
	}
	close(started)
	wg.Wait()

	if got := computations.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != 42 {
			t.Fatalf("goroutine %d: got %v", i, results[i])
		}
		if !hits[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders (hit=false), want exactly 1", leaders)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Dedup != n-1 {
		t.Fatalf("hits %d + dedup %d != %d", st.Hits, st.Dedup, n-1)
	}
}

func TestGetAndLRUEviction(t *testing.T) {
	c := New(2)
	ctx := context.Background()
	put := func(k string, v int) {
		if _, _, err := c.Do(ctx, k, func() (any, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 1)
	put("b", 2)
	if _, ok := c.Get("a"); !ok { // touch a so b is now least recent
		t.Fatal("a missing")
	}
	put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should be cached", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(4)
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	fn := func() (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, _, err := c.Do(ctx, "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.Do(ctx, "k", fn)
	if err != nil || v != "ok" || hit {
		t.Fatalf("retry: v=%v hit=%v err=%v", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestFollowerHonoursItsContext(t *testing.T) {
	c := New(4)
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func() (any, error) {
			close(leaderIn)
			<-release
			return 1, nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, "k", func() (any, error) { return 2, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	close(release)
}

// TestFollowerRecomputesAfterLeaderError: a leader's error other than a
// panic (its cancellation, its budget) is not its follower's; the
// follower computes the key itself.
func TestFollowerRecomputesAfterLeaderError(t *testing.T) {
	c := New(4)
	leaderIn := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (any, error) {
			close(leaderIn)
			for c.Stats().Dedup == 0 {
				time.Sleep(time.Millisecond)
			}
			return nil, context.Canceled
		})
		leaderErr <- err
	}()
	<-leaderIn
	v, hit, err := c.Do(context.Background(), "k", func() (any, error) { return 2, nil })
	if err != nil || hit || v != 2 {
		t.Fatalf("follower = %v, hit %v, %v; want its own computed 2", v, hit, err)
	}
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Dedup != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 misses, 1 dedup, 1 entry", st)
	}
}

// TestFollowerRecomputesAfterLeadersOwnFailure: a leader whose context
// ended before its computation returned, or whose analysis ran out of
// its state budget, failed on its own account; the follower computes
// the key itself rather than take that error.
func TestFollowerRecomputesAfterLeadersOwnFailure(t *testing.T) {
	for name, fail := range map[string]func(cancel context.CancelFunc) error{
		"state budget": func(context.CancelFunc) error {
			return &statespace.BudgetError{Graph: "g", MaxStates: 10}
		},
		"leader context ended": func(cancel context.CancelFunc) error {
			cancel()
			return statespace.ErrInterrupted
		},
	} {
		c := New(4)
		ctx, cancel := context.WithCancel(context.Background())
		leaderIn := make(chan struct{})
		go c.Do(ctx, "k", func() (any, error) {
			close(leaderIn)
			for c.Stats().Dedup == 0 {
				time.Sleep(time.Millisecond)
			}
			return nil, fail(cancel)
		})
		<-leaderIn
		v, hit, err := c.Do(context.Background(), "k", func() (any, error) { return 2, nil })
		cancel()
		if err != nil || hit || v != 2 {
			t.Errorf("%s: follower = %v, hit %v, %v; want its own computed 2", name, v, hit, err)
		}
	}
}

// TestFollowersShareLeaderError: any other failure is the key's, and
// every follower takes it from the one computation.
func TestFollowersShareLeaderError(t *testing.T) {
	const n = 8
	c := New(4)
	boom := errors.New("infeasible")
	var computations atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do(context.Background(), "k", func() (any, error) {
				computations.Add(1)
				for j := 0; j < 5000 && c.Stats().Dedup < n-1; j++ {
					time.Sleep(time.Millisecond)
				}
				return nil, boom
			})
		}(i)
	}
	wg.Wait()
	if got := computations.Load(); got != 1 {
		t.Errorf("%d joined callers ran %d computations, want 1", n, got)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d: %v, want the shared %v", i, err, boom)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.InFlight != 0 {
		t.Errorf("after the failure: %+v, want nothing cached or in flight", st)
	}
}

// TestPanicReleasesFollowers: a panicking computation reaches neither the
// leader's nor a joined follower's goroutine as a panic; both get a
// *PanicError carrying the panic value, nothing is cached, and the next
// Do on the key recomputes.
func TestPanicReleasesFollowers(t *testing.T) {
	c := New(4)
	leaderIn := make(chan struct{})
	leaderErr := make(chan error, 1)
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (any, error) {
			close(leaderIn)
			// Panic only once the follower has joined this computation.
			for c.Stats().Dedup == 0 {
				time.Sleep(time.Millisecond)
			}
			panic("kaboom")
		})
		leaderErr <- err
	}()
	<-leaderIn
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (any, error) { return 1, nil })
		followerErr <- err
	}()
	for name, ch := range map[string]chan error{"leader": leaderErr, "follower": followerErr} {
		select {
		case err := <-ch:
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Value != "kaboom" || len(pe.Stack) == 0 {
				t.Fatalf("%s err = %v, want a *PanicError for kaboom with a stack", name, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s deadlocked on the panicked computation", name)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.InFlight != 0 {
		t.Fatalf("after the panic: %+v, want nothing cached or in flight", st)
	}
	v, hit, err := c.Do(context.Background(), "k", func() (any, error) { return 2, nil })
	if err != nil || hit || v != 2 {
		t.Fatalf("next Do = %v, hit %v, %v; want a recomputed 2", v, hit, err)
	}
}
