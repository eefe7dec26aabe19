package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/modelio"
	"mamps/internal/sdf"
)

// smallMJPEG is a quick built-in workload: 32x32 with 4:2:0 sampling is
// four MCUs per frame, so the whole flow (including execution) finishes
// in well under a second.
const smallMJPEG = `{"name":"mjpeg","width":32,"height":32,"frames":1}`

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestConcurrentFlowDedup is the acceptance test of the service: 32
// identical concurrent MJPEG flow requests must all succeed with the
// same result, and exactly one of them may carry cached=false (the one
// computation; everyone else was answered by the cache or joined the
// in-flight job).
func TestConcurrentFlowDedup(t *testing.T) {
	s := New(Config{Workers: 8, QueueDepth: 64})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 32
	body := `{"workload":` + smallMJPEG + `,"tiles":5,"iterations":-1}`
	type outcome struct {
		status int
		resp   modelio.FlowResponseJSON
		raw    string
	}
	outcomes := make([]outcome, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/flow", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			outcomes[i].status = resp.StatusCode
			outcomes[i].raw = string(data)
			json.Unmarshal(data, &outcomes[i].resp)
		}(i)
	}
	close(start)
	wg.Wait()

	uncached := 0
	for i, o := range outcomes {
		if o.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, o.status, o.raw)
		}
		if !o.resp.Cached {
			uncached++
		}
		if o.resp.WorstCase != outcomes[0].resp.WorstCase ||
			o.resp.Measured != outcomes[0].resp.Measured ||
			len(o.resp.Binding) != len(outcomes[0].resp.Binding) {
			t.Fatalf("request %d: result differs from request 0:\n%s\nvs\n%s", i, o.raw, outcomes[0].raw)
		}
	}
	if uncached != 1 {
		t.Fatalf("%d responses computed (cached=false), want exactly 1", uncached)
	}
	first := outcomes[0].resp
	if first.Measured.ItersPerCycle <= 0 || first.WorstCase.ItersPerCycle <= 0 {
		t.Fatalf("degenerate throughputs: %+v", first)
	}
	if first.Measured.ItersPerCycle < first.WorstCase.ItersPerCycle {
		t.Fatalf("measured %v below worst-case bound %v",
			first.Measured.ItersPerCycle, first.WorstCase.ItersPerCycle)
	}
	if st := s.Cache().Stats(); st.Misses == 0 {
		t.Fatal("cache saw no misses; requests did not route through it")
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := post(t, ts, "/v1/analyze", `{"workload":`+smallMJPEG+`,"targetThroughput":1e-5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out modelio.AnalyzeResponseJSON
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.App == "" || out.Actors == 0 || len(out.RepetitionVector) != out.Actors {
		t.Fatalf("incomplete response: %s", data)
	}
	// The MJPEG graph deadlocks at per-channel lower-bound buffers, so the
	// baseline is legitimately zero; the sized distribution must reach the
	// target.
	if out.Achieved.ItersPerCycle < out.TargetThroughput || out.Achieved.ItersPerCycle <= 0 || len(out.Buffers) == 0 {
		t.Fatalf("buffer sizing missing or under target: %s", data)
	}
	if out.Cached {
		t.Fatal("first request reported cached=true")
	}

	// Identical second request is a cache hit.
	resp, data = post(t, ts, "/v1/analyze", `{"workload":`+smallMJPEG+`,"targetThroughput":1e-5}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var again modelio.AnalyzeResponseJSON
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("identical repeat request was not served from the cache")
	}
	if again.Throughput != out.Throughput {
		t.Fatalf("cached result differs: %v vs %v", again.Throughput, out.Throughput)
	}
}

func TestDSEEndpoint(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := post(t, ts, "/v1/dse", `{"workload":`+smallMJPEG+`,"minTiles":1,"maxTiles":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out modelio.DSEResponseJSON
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Points) == 0 {
		t.Fatalf("no sweep points: %s", data)
	}
	pareto := 0
	for _, p := range out.Points {
		if p.Pareto {
			pareto++
		}
	}
	if pareto == 0 {
		t.Fatal("no point marked Pareto-optimal")
	}
}

// demoAppXML serializes a small analysis-only application model.
func demoAppXML(t *testing.T) string {
	t.Helper()
	g := sdf.NewGraph("fig2")
	a := g.AddActor("A", 40)
	b := g.AddActor("B", 25)
	c := g.AddActor("C", 30)
	g.Connect(a, b, 2, 1, 0).Name = "a2b"
	g.Connect(a, c, 1, 1, 0).Name = "a2c"
	g.Connect(b, c, 1, 2, 0).Name = "b2c"
	g.AddStateChannel(a)
	app := appmodel.New("fig2", g)
	for _, actor := range g.Actors() {
		app.AddImpl(actor, appmodel.Impl{PE: arch.MicroBlaze, WCET: actor.ExecTime, InstrMem: 2048, DataMem: 512})
	}
	data, err := modelio.WriteApp(app)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestFlowFromXMLModel(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqBody, _ := json.Marshal(modelio.FlowRequestJSON{AppXML: demoAppXML(t), Tiles: 3})
	resp, data := post(t, ts, "/v1/flow", string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out modelio.FlowResponseJSON
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.App != "fig2" || out.Tiles != 3 || len(out.Binding) != 3 {
		t.Fatalf("unexpected response: %s", data)
	}
	if out.WorstCase.ItersPerCycle <= 0 {
		t.Fatalf("worst-case throughput %v", out.WorstCase)
	}
	if out.Measured.ItersPerCycle != 0 {
		t.Fatal("analysis-only model reported a measured throughput")
	}
}

func TestRequestValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, path, body string
		want             int
		mention          string // the error text must name this, when set
	}{
		{"malformed JSON", "/v1/flow", `{"workload":`, http.StatusBadRequest, ""},
		{"unknown field", "/v1/flow", `{"wrkload":{"name":"mjpeg"}}`, http.StatusBadRequest, ""},
		{"no application", "/v1/flow", `{}`, http.StatusUnprocessableEntity, ""},
		{"both sources", "/v1/flow", `{"appXML":"<x/>","workload":` + smallMJPEG + `}`, http.StatusUnprocessableEntity, ""},
		{"unknown workload", "/v1/analyze", `{"workload":{"name":"h264"}}`, http.StatusUnprocessableEntity, ""},
		{"unknown sequence", "/v1/analyze", `{"workload":{"name":"mjpeg","sequence":"nope"}}`, http.StatusUnprocessableEntity, ""},
		{"unknown interconnect", "/v1/flow", `{"workload":` + smallMJPEG + `,"interconnect":"pcie"}`, http.StatusUnprocessableEntity, ""},
		{"dse bad interconnect", "/v1/dse", `{"workload":` + smallMJPEG + `,"interconnects":["pcie"]}`, http.StatusUnprocessableEntity, ""},
		{"dse negative workers", "/v1/dse", `{"workload":` + smallMJPEG + `,"workers":-2}`, http.StatusBadRequest, ""},
		// analyzeWorkers was removed with the sharded explorer; old
		// clients still sending it get a 400, not a silently ignored field.
		{"removed analyzeWorkers", "/v1/analyze", `{"workload":` + smallMJPEG + `,"analyzeWorkers":2}`, http.StatusBadRequest, `unknown field "analyzeWorkers"`},
	}
	for _, c := range cases {
		resp, data := post(t, ts, c.path, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.want, data)
		}
		var e modelio.ErrorJSON
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: no error envelope in %s", c.name, data)
		}
		if !strings.Contains(e.Error, c.mention) {
			t.Errorf("%s: error %q does not name %q", c.name, e.Error, c.mention)
		}
	}

	// An XML model cannot execute iterations.
	body, _ := json.Marshal(modelio.FlowRequestJSON{AppXML: demoAppXML(t), Tiles: 3, Iterations: 8})
	resp, data := post(t, ts, "/v1/flow", string(body))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("XML+iterations: status %d, want 422 (%s)", resp.StatusCode, data)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := post(t, ts, "/v1/analyze", `{"workload":`+smallMJPEG+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, data)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hdata, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", hr.StatusCode, hdata)
	}
	var st Stats
	if err := json.Unmarshal(hdata, &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != "ok" || st.Workers != 2 {
		t.Fatalf("healthz: %+v", st)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", mr.StatusCode)
	}
	for _, want := range []string{
		"mamps_requests_total{endpoint=\"analyze\",code=\"200\"} 1",
		"mamps_request_seconds_bucket",
		"mamps_request_seconds_count",
		"mamps_cache_misses_total",
		"mamps_workers 2",
		"mamps_queue_capacity",
		"mamps_jobs_total 1",
	} {
		if !bytes.Contains(mdata, []byte(want)) {
			t.Errorf("metrics output missing %q:\n%s", want, mdata)
		}
	}

	// After Shutdown the service reports draining and rejects work.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	hr, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hdata, _ = io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d %s", hr.StatusCode, hdata)
	}
	resp, data = post(t, ts, "/v1/analyze", `{"workload":`+smallMJPEG+`}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("analyze while draining: %d %s", resp.StatusCode, data)
	}
}

// TestGracefulDrain: Shutdown lets the in-flight job finish, rejects new
// submissions immediately, and returns once the pool is idle.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	started := make(chan struct{})
	release := make(chan struct{})

	jobErr := make(chan error, 1)
	go func() {
		_, _, err := s.submit(context.Background(), "", func(ctx context.Context) (any, error) {
			close(started)
			select {
			case <-release:
				return "done", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
		jobErr <- err
	}()
	<-started

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Shutdown(context.Background()) }()

	// Shutdown must flip the draining flag promptly; poll for it.
	deadline := time.Now().Add(2 * time.Second)
	for !s.Drained() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := s.submit(context.Background(), "", func(ctx context.Context) (any, error) {
		return nil, nil
	}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}

	select {
	case err := <-drainErr:
		t.Fatalf("Shutdown returned %v before the in-flight job finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-jobErr; err != nil {
		t.Fatalf("in-flight job: %v", err)
	}
}

// TestShutdownDeadlineAborts: when the drain deadline expires, in-flight
// jobs are hard-cancelled through their contexts.
func TestShutdownDeadlineAborts(t *testing.T) {
	s := New(Config{Workers: 1})
	started := make(chan struct{})
	jobErr := make(chan error, 1)
	go func() {
		_, _, err := s.submit(context.Background(), "", func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done() // a well-behaved job honours cancellation
			return nil, ctx.Err()
		})
		jobErr <- err
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown: %v, want deadline exceeded", err)
	}
	if err := <-jobErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted job: %v, want context.Canceled", err)
	}
}

// TestQueueFull: with one busy worker and a full queue, the next
// submission is rejected instead of blocking.
func TestQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	started := make(chan struct{})
	release := make(chan struct{})
	block := func(ctx context.Context) (any, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	go func() {
		s.submit(context.Background(), "", func(ctx context.Context) (any, error) {
			close(started)
			return block(ctx)
		})
	}()
	<-started
	go s.submit(context.Background(), "", block) // fills the queue slot

	deadline := time.Now().Add(2 * time.Second)
	for s.depth.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued job never registered")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := s.submit(context.Background(), "", block); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit to full queue: %v, want ErrQueueFull", err)
	}
	if s.metrics.snapshotRejects()["queue_full"] == 0 {
		t.Fatal("queue_full rejection not counted")
	}
	close(release)
}

// TestJobTimeout: a job exceeding the per-job timeout is cancelled and
// reported as a deadline error (504 at the HTTP layer).
func TestJobTimeout(t *testing.T) {
	s := New(Config{Workers: 1, JobTimeout: 20 * time.Millisecond})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	_, _, err := s.submit(context.Background(), "", func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestCachedJobError: a failing job is not cached; the next identical
// request retries it.
func TestCachedJobError(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	calls := 0
	run := func(ctx context.Context) (any, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("transient")
		}
		return "ok", nil
	}
	if _, _, err := s.submit(context.Background(), "key", run); err == nil {
		t.Fatal("first call should fail")
	}
	v, hit, err := s.submit(context.Background(), "key", run)
	if err != nil || v != "ok" || hit {
		t.Fatalf("retry: v=%v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = s.submit(context.Background(), "key", run)
	if err != nil || v != "ok" || !hit {
		t.Fatalf("third call: v=%v hit=%v err=%v, want cache hit", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}
