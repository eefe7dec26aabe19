// Hardened-serving-path tests: panic containment, admission control,
// drain-aware readiness, and fault injection over the wire.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mamps/internal/arch"
	"mamps/internal/modelio"
	"mamps/internal/sim"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPanicRecovery: a panicking handler yields a 500 that still carries
// the request ID, the stack reaches the log, and the server keeps
// serving afterwards.
func TestPanicRecovery(t *testing.T) {
	var logBuf bytes.Buffer
	s := New(Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(&logBuf, nil))})
	defer s.Shutdown(context.Background())

	boom := s.instrument("boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	rr := httptest.NewRecorder()
	boom(rr, httptest.NewRequest("GET", "/boom", nil))

	if rr.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rr.Code)
	}
	if rr.Header().Get("X-Request-ID") == "" {
		t.Error("panic response lost the X-Request-ID header")
	}
	var e modelio.ErrorJSON
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil {
		t.Fatalf("panic response is not the error envelope: %v", err)
	}
	if e.Kind != "panic" {
		t.Errorf("Kind = %q, want panic", e.Kind)
	}
	logs := logBuf.String()
	if !strings.Contains(logs, "kaboom") || !strings.Contains(logs, "goroutine") {
		t.Errorf("panic log missing message or stack:\n%s", logs)
	}

	// The server is still alive and serving.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := post(t, ts, "/v1/analyze", `{"workload":`+smallMJPEG+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-panic analyze status = %d, want 200", resp.StatusCode)
	}
}

// TestJobPanicRecovery: a panicking job is converted to an error; the
// worker (and the daemon) survive.
func TestJobPanicRecovery(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	_, _, err := s.submit(context.Background(), "", func(ctx context.Context) (any, error) {
		panic("job kaboom")
	})
	if err == nil || !strings.Contains(err.Error(), "job kaboom") {
		t.Fatalf("err = %v, want job panic error", err)
	}
	// Worker still alive.
	v, _, err := s.submit(context.Background(), "", func(ctx context.Context) (any, error) {
		return "ok", nil
	})
	if err != nil || v != "ok" {
		t.Fatalf("post-panic job = %v, %v", v, err)
	}
}

// TestCachedJobPanicRecovery: every /v1/* job carries a cache key, so a
// panic inside cache.Do must also come back as an error, be counted once
// in mamps_panics_total, and leave the worker serving; the key is not
// cached, so the next job on it recomputes.
func TestCachedJobPanicRecovery(t *testing.T) {
	s := New(Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Shutdown(context.Background())
	_, _, err := s.submit(context.Background(), "panicky", func(ctx context.Context) (any, error) {
		panic("cached kaboom")
	})
	if !errors.Is(err, errJobPanic) || !strings.Contains(err.Error(), "cached kaboom") {
		t.Fatalf("err = %v, want the cached job's panic as an error", err)
	}
	s.metrics.mu.Lock()
	panics := s.metrics.panics
	s.metrics.mu.Unlock()
	if panics != 1 {
		t.Errorf("panics counted = %d, want 1", panics)
	}
	v, hit, err := s.submit(context.Background(), "panicky", func(ctx context.Context) (any, error) {
		return "ok", nil
	})
	if err != nil || hit || v != "ok" {
		t.Fatalf("post-panic job = %v, hit %v, %v; want a recomputed ok", v, hit, err)
	}
}

// TestMalformedModelRejected: one-attribute edits of the demo model that
// the sdf constructors would panic on get a 4xx naming the offender on
// every route that decodes an application, within 100 ms, and the server
// keeps answering /healthz.
func TestMalformedModelRejected(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := demoAppXML(t)
	for _, c := range []struct{ name, old, new, mention string }{
		{"duplicate actor", `<actor name="B"`, `<actor name="A"`, `"A"`},
		{"zero srcRate", `srcRate="2"`, `srcRate="0"`, `"a2b"`},
		{"negative initialTokens", `initialTokens="0"`, `initialTokens="-1"`, `"a2b"`},
	} {
		bad := strings.Replace(doc, c.old, c.new, 1)
		if bad == doc {
			t.Fatalf("%s: %s not in the demo model:\n%s", c.name, c.old, doc)
		}
		for path, req := range map[string]any{
			"/v1/analyze": modelio.AnalyzeRequestJSON{AppXML: bad},
			"/v1/flow":    modelio.FlowRequestJSON{AppXML: bad, Tiles: 3},
			"/v1/dse":     modelio.DSERequestJSON{AppXML: bad, MaxTiles: 2, Interconnects: []string{"fsl"}},
		} {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			resp, data := post(t, ts, path, string(body))
			elapsed := time.Since(start)
			if resp.StatusCode < 400 || resp.StatusCode >= 500 {
				t.Errorf("%s %s: status %d, want 4xx (%s)", c.name, path, resp.StatusCode, data)
			}
			var e modelio.ErrorJSON
			if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, c.mention) {
				t.Errorf("%s %s: error does not name %s: %s", c.name, path, c.mention, data)
			}
			if elapsed > 100*time.Millisecond {
				t.Errorf("%s %s: answered in %v, want within 100ms", c.name, path, elapsed)
			}
		}
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after malformed models: %d", hr.StatusCode)
	}
}

// overflowChainXML is a 5-actor chain whose coprime rates near 10^6 make
// the repetition vector's fractions outgrow int64.
func overflowChainXML() string {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>
<applicationGraph name="overflow"><sdf>`)
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&b, `<actor name="a%d"></actor>`, i)
	}
	for i, r := range [][2]int{{1000003, 999983}, {1000033, 999979}, {1000037, 999961}, {1000039, 999959}} {
		fmt.Fprintf(&b, `<channel name="c%d" srcActor="a%d" srcRate="%d" dstActor="a%d" dstRate="%d" initialTokens="0" tokenSize="4"></channel>`,
			i, i, r[0], i+1, r[1])
	}
	b.WriteString(`</sdf>`)
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&b, `<actorProperties actor="a%d"><processor type="microblaze"><executionTime><time>10</time></executionTime>`+
			`<memory><instr>2048</instr><data>512</data></memory></processor></actorProperties>`, i)
	}
	b.WriteString(`</applicationGraph>`)
	return b.String()
}

// TestRepetitionVectorOverflowRejected: a model whose repetition vector
// overflows int64 gets a structured 4xx on every route that decodes an
// application, within 100 ms, not a 500; the server keeps answering
// /healthz.
func TestRepetitionVectorOverflowRejected(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := overflowChainXML()
	for path, req := range map[string]any{
		"/v1/analyze": modelio.AnalyzeRequestJSON{AppXML: doc},
		"/v1/flow":    modelio.FlowRequestJSON{AppXML: doc, Tiles: 3},
		"/v1/dse":     modelio.DSERequestJSON{AppXML: doc, MaxTiles: 2, Interconnects: []string{"fsl"}},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, data := post(t, ts, path, string(body))
		elapsed := time.Since(start)
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s: status %d, want 4xx (%s)", path, resp.StatusCode, data)
		}
		var e modelio.ErrorJSON
		if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, "overflow") {
			t.Errorf("%s: want a structured error naming the overflow: %s", path, data)
		}
		if elapsed > 100*time.Millisecond {
			t.Errorf("%s: answered in %v, want within 100ms", path, elapsed)
		}
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after overflowing models: %d", hr.StatusCode)
	}
}

// TestFIFODepthCapRejected: an archXML whose FSL FIFO depth exceeds
// arch.MaxFIFODepth gets a 422 naming the depth and the cap within
// 100 ms, instead of a state space sized by the depth (4,000,000 words
// exhausted the heap before the cap existed); /healthz stays 200.
func TestFIFODepthCapRejected(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	plat, err := arch.DefaultTemplate().Generate("fsl3", 3, arch.FSL)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := modelio.WriteArch(plat)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`fifoDepth="%d"`, plat.Interconnect.FIFODepth)
	bad := strings.Replace(string(doc), want, `fifoDepth="4000000"`, 1)
	if bad == string(doc) {
		t.Fatalf("%s not in the generated platform:\n%s", want, doc)
	}
	archJSON, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, data := post(t, ts, "/v1/flow",
		`{"workload":`+smallMJPEG+`,"archXML":`+string(archJSON)+`,"iterations":1}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, data)
	}
	var e modelio.ErrorJSON
	if err := json.Unmarshal(data, &e); err != nil ||
		!strings.Contains(e.Error, "4000000") || !strings.Contains(e.Error, fmt.Sprint(arch.MaxFIFODepth)) {
		t.Errorf("error does not name the depth and the cap: %s", data)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("answered in %v, want within 100ms", elapsed)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the oversized FIFO: %d", hr.StatusCode)
	}
}

// TestQueueSaturation429: with the single worker busy and the queue
// full, new HTTP work is turned away with 429 and a Retry-After header.
func TestQueueSaturation429(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	block := func(ctx context.Context) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	// One job occupies the worker, one fills the queue. The second is
	// submitted only once the worker holds the first: submitted together,
	// both could reach the one-slot queue before the worker takes one,
	// and the second would be turned away instead of queued.
	go s.submit(context.Background(), "", block)
	waitFor(t, "busy worker", func() bool { return s.Stats().BusyWork == 1 })
	go s.submit(context.Background(), "", block)
	waitFor(t, "saturation", func() bool {
		st := s.Stats()
		return st.BusyWork == 1 && st.QueueDepth == 1
	})

	resp, body := post(t, ts, "/v1/flow", `{"workload":`+smallMJPEG+`,"tiles":5}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var e modelio.ErrorJSON
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.RetryAfterSec <= 0 {
		t.Errorf("retryAfterSec = %d, want positive", e.RetryAfterSec)
	}
	close(release)
}

// TestReadyzFlipsBeforeHealthz: the readiness probe goes 503 the moment
// a drain begins, while liveness stays 200 ("draining") until the
// workers have actually exited — the ordering a load balancer needs.
func TestReadyzFlipsBeforeHealthz(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	go s.submit(context.Background(), "", func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	})
	waitFor(t, "busy worker", func() bool { return s.Stats().BusyWork == 1 })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	waitFor(t, "drain start", s.Drained)

	get := func(path string) (*http.Response, Stats) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, st
	}

	resp, st := get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !st.Draining {
		t.Errorf("mid-drain readyz = %d draining=%v, want 503 draining", resp.StatusCode, st.Draining)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("readyz 503 without Retry-After")
	}
	resp, st = get("/healthz")
	if resp.StatusCode != http.StatusOK || st.Status != "draining" {
		t.Errorf("mid-drain healthz = %d %q, want 200 draining", resp.StatusCode, st.Status)
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatal(err)
	}
	resp, st = get("/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable || st.Status != "stopped" {
		t.Errorf("post-drain healthz = %d %q, want 503 stopped", resp.StatusCode, st.Status)
	}
}

// TestWriteErrorMapping: the structured status-code map — deadlocks are
// a 422 carrying cycle and report, drain a 503 marked draining.
func TestWriteErrorMapping(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())

	rr := httptest.NewRecorder()
	s.writeError(rr, httptest.NewRequest("POST", "/v1/flow", nil), &sim.DeadlockError{Cycle: 1234, Report: "  tile0: tokens on ab (0/1)\n"})
	if rr.Code != http.StatusUnprocessableEntity {
		t.Errorf("deadlock status = %d, want 422", rr.Code)
	}
	var e modelio.ErrorJSON
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != "deadlock" || e.Cycle != 1234 || !strings.Contains(e.Report, "tile0") {
		t.Errorf("deadlock envelope = %+v", e)
	}

	rr = httptest.NewRecorder()
	s.writeError(rr, httptest.NewRequest("POST", "/v1/flow", nil), ErrDraining)
	if rr.Code != http.StatusServiceUnavailable || rr.Header().Get("Retry-After") == "" {
		t.Errorf("draining = %d Retry-After=%q, want 503 with header", rr.Code, rr.Header().Get("Retry-After"))
	}
	e = modelio.ErrorJSON{}
	if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if !e.Draining {
		t.Error("draining rejection not marked draining in body")
	}
}

// TestFlowFaultInjectionHTTP: the wire-level half of the degraded-mode
// acceptance — a fail-stop scenario posted to /v1/flow comes back as a
// 200 with the degraded section, and the result caches like any other.
func TestFlowFaultInjectionHTTP(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"workload":` + smallMJPEG + `,"tiles":5,"iterations":-1,` +
		`"faults":{"seed":1,"failTile":"tile1","failCycle":20000}}`
	resp, data := post(t, ts, "/v1/flow", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var fr modelio.FlowResponseJSON
	if err := json.Unmarshal(data, &fr); err != nil {
		t.Fatal(err)
	}
	deg := fr.Degraded
	if deg == nil {
		t.Fatalf("no degraded section in %s", data)
	}
	if deg.FailedTile != "tile1" || deg.FailCycle != 20000 {
		t.Errorf("failure = %s@%d, want tile1@20000", deg.FailedTile, deg.FailCycle)
	}
	if len(deg.SurvivingTiles) != 4 {
		t.Errorf("survivingTiles = %v, want 4", deg.SurvivingTiles)
	}
	if deg.Measured.ItersPerCycle < deg.WorstCase.ItersPerCycle*(1-1e-9) {
		t.Errorf("degraded measured %v below bound %v", deg.Measured, deg.WorstCase)
	}
	if len(deg.Binding) == 0 {
		t.Error("degraded section missing the new binding")
	}

	// A fault-free request over the same workload must not share the
	// faulted entry: the scenario is part of the content address.
	resp2, data2 := post(t, ts, "/v1/flow", `{"workload":`+smallMJPEG+`,"tiles":5,"iterations":-1}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("fault-free status = %d: %s", resp2.StatusCode, data2)
	}
	var fr2 modelio.FlowResponseJSON
	if err := json.Unmarshal(data2, &fr2); err != nil {
		t.Fatal(err)
	}
	if fr2.Degraded != nil {
		t.Error("fault-free request served the faulted (degraded) result")
	}

	// The faulted result itself is cacheable.
	resp3, data3 := post(t, ts, "/v1/flow", body)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d", resp3.StatusCode)
	}
	var fr3 modelio.FlowResponseJSON
	if err := json.Unmarshal(data3, &fr3); err != nil {
		t.Fatal(err)
	}
	if !fr3.Cached || fr3.Degraded == nil {
		t.Errorf("repeat: cached=%v degraded=%v, want cached with degraded section", fr3.Cached, fr3.Degraded != nil)
	}
}
