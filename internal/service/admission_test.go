// Admission-order tests: the response cache answers hits and joins
// in-flight computations before the job queue, so only a key's leader
// takes a queue slot and a worker, and a joined request does not share
// its leader's cancellation.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mamps/internal/modelio"
)

// TestFollowerOutlivesLeaderCancel: when the request computing a key is
// cancelled, a request that joined it computes the key under its own,
// live context instead of failing with the leader's cancellation.
func TestFollowerOutlivesLeaderCancel(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderIn := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := s.submit(leaderCtx, "k", func(ctx context.Context) (any, error) {
			close(leaderIn)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		leaderErr <- err
	}()
	<-leaderIn

	type outcome struct {
		val any
		hit bool
		err error
	}
	follower := make(chan outcome, 1)
	go func() {
		v, hit, err := s.submit(context.Background(), "k", func(ctx context.Context) (any, error) {
			return "ok", nil
		})
		follower <- outcome{v, hit, err}
	}()
	waitFor(t, "follower joined", func() bool { return s.Cache().Stats().Dedup == 1 })
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	got := <-follower
	if got.err != nil || got.val != "ok" || got.hit {
		t.Fatalf("follower = %v, hit %v, %v; want its own computed ok", got.val, got.hit, got.err)
	}
}

// TestCachedKeyServedWhileQueueFull: a cached key is answered with the
// worker busy and the queue full; only a computation needs a slot.
func TestCachedKeyServedWhileQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Shutdown(context.Background())

	if _, _, err := s.submit(context.Background(), "k", func(ctx context.Context) (any, error) {
		return "cached", nil
	}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	go s.submit(context.Background(), "", block)
	waitFor(t, "busy worker", func() bool { return s.Stats().BusyWork == 1 })
	go s.submit(context.Background(), "", block)
	waitFor(t, "full queue", func() bool { return s.Stats().QueueDepth == 1 })

	v, hit, err := s.submit(context.Background(), "k", func(ctx context.Context) (any, error) {
		t.Error("a cached key was computed again")
		return nil, nil
	})
	if err != nil || !hit || v != "cached" {
		t.Fatalf("cached key with a full queue = %v, hit %v, %v; want the cached value", v, hit, err)
	}
	if _, _, err := s.submit(context.Background(), "other", block); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("uncached key with a full queue: %v, want ErrQueueFull", err)
	}
}

// TestIdenticalRequestsOccupyOneWorker: N identical in-flight requests
// hold one worker and no queue slot for their one computation.
func TestIdenticalRequestsOccupyOneWorker(t *testing.T) {
	const n = 3
	s := New(Config{Workers: 4})
	defer s.Shutdown(context.Background())

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	run := func(ctx context.Context) (any, error) {
		once.Do(func() { close(started) })
		<-release
		return "v", nil
	}
	var wg sync.WaitGroup
	hits := make([]bool, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, hits[i], errs[i] = s.submit(context.Background(), "k", run)
		}(i)
	}
	<-started
	waitFor(t, "followers joined", func() bool { return s.Cache().Stats().Dedup == n-1 })
	if st := s.Stats(); st.BusyWork != 1 || st.QueueDepth != 0 {
		t.Errorf("%d identical requests: %d busy workers, %d queued; want 1 and 0", n, st.BusyWork, st.QueueDepth)
	}
	close(release)
	wg.Wait()
	computed := 0
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !hits[i] {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d requests computed, want 1", computed)
	}
}

// TestFollowersShareLeaderFailure: N identical requests whose one
// computation fails (an infeasible flow, say) all get its error from
// that one computation, instead of computing the key again one after
// another.
func TestFollowersShareLeaderFailure(t *testing.T) {
	const n = 8
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())

	errInfeasible := errors.New("infeasible")
	var computations atomic.Int64
	run := func(ctx context.Context) (any, error) {
		computations.Add(1)
		// Fail once every other request has joined (or after 5 s).
		for i := 0; i < 5000 && s.Cache().Stats().Dedup < n-1; i++ {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		return nil, errInfeasible
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = s.submit(context.Background(), "k", run)
		}(i)
	}
	wg.Wait()
	if got := computations.Load(); got != 1 {
		t.Errorf("%d identical failing requests ran %d computations, want 1", n, got)
	}
	for i, err := range errs {
		if !errors.Is(err, errInfeasible) {
			t.Errorf("request %d: %v, want the shared %v", i, err, errInfeasible)
		}
	}
}

// TestFlowFollowerSurvivesClientDisconnect: of two identical /v1/flow
// requests, the first client hangs up while its computation runs; the
// second, which joined it, still gets a 200.
func TestFlowFollowerSurvivesClientDisconnect(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Large enough that the flow is still running when the first client
	// hangs up, microseconds after the second has joined it.
	body := `{"workload":{"name":"mjpeg","width":256,"height":256,"frames":2},"tiles":5,"iterations":-1}`
	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/flow", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		first <- err
	}()
	waitFor(t, "first request computing", func() bool { return s.Cache().Stats().InFlight == 1 })

	type reply struct {
		code int
		data []byte
	}
	second := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/flow", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			second <- reply{}
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		second <- reply{resp.StatusCode, data}
	}()
	waitFor(t, "second request joined", func() bool { return s.Cache().Stats().Dedup == 1 })
	hangUp()
	if err := <-first; err == nil {
		t.Fatal("the first request completed before its client hung up")
	}

	got := <-second
	if got.code != http.StatusOK {
		t.Fatalf("joined request after the first client hung up: %d %s", got.code, got.data)
	}
	var fr modelio.FlowResponseJSON
	if err := json.Unmarshal(got.data, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Measured.ItersPerCycle <= 0 {
		t.Fatalf("degenerate flow response: %s", got.data)
	}
}
