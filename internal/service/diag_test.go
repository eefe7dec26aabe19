package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mamps/internal/obs"
	"mamps/internal/obs/diag"
	"mamps/internal/obs/promtest"
	"mamps/internal/runlog"
	"mamps/internal/sim"
)

// diagTestServer builds a server wired to a fresh run registry with CPU
// profiling disabled (heap/goroutine only) so dumps are fast.
func diagTestServer(t *testing.T) (*Server, *runlog.Registry, string) {
	t.Helper()
	dir := t.TempDir()
	reg, err := runlog.Open(dir, runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	s := New(Config{Workers: 1, RunLog: reg})
	s.dumpCPU = 0
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s, reg, dir
}

// TestDebugDumpEndpoint drives POST /debug/dump over the wire: the
// response names the stored kind "diag" record, the bundle is readable
// back as the run's diag.json artifact, and every profile digest in the
// manifest resolves in the blob store.
func TestDebugDumpEndpoint(t *testing.T) {
	s, reg, _ := diagTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := post(t, ts, "/debug/dump", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /debug/dump: %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Record   string            `json:"record"`
		Reason   string            `json:"reason"`
		Profiles map[string]string `json:"profiles"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("dump response not JSON: %v\n%s", err, data)
	}
	if out.Reason != "manual" || out.Record == "" || len(out.Profiles) == 0 {
		t.Fatalf("dump response = %+v", out)
	}

	rec, ok := reg.Get(out.Record)
	if !ok {
		t.Fatalf("dump record %s not in registry", out.Record)
	}
	if rec.Kind != "diag" || rec.Outcome != "manual" || rec.BaselineKey != "diag/manual" {
		t.Fatalf("dump record = %+v", rec)
	}
	if len(rec.Profiles) != len(out.Profiles) {
		t.Fatalf("record profiles %v != response profiles %v", rec.Profiles, out.Profiles)
	}
	manifest, err := reg.ReadArtifact(out.Record, "diag.json")
	if err != nil {
		t.Fatal(err)
	}
	var b diag.Bundle
	if err := json.Unmarshal(manifest, &b); err != nil {
		t.Fatal(err)
	}
	if b.Reason != "manual" || b.FormatVersion != 1 {
		t.Fatalf("bundle = %+v", b)
	}
	for name, digest := range b.Profiles {
		if _, err := reg.ReadBlob(digest); err != nil {
			t.Fatalf("bundle profile %s (%s) unresolvable: %v", name, digest, err)
		}
	}
	// The dump rides the instrumented path, so its record carries the
	// request's trace context.
	if rec.TraceID == "" || rec.SpanID == "" {
		t.Fatalf("dump record lacks trace context: %+v", rec)
	}
}

// TestDeadlockDump checks the 422 path: a structured deadlock error
// triggers a diagnostic dump whose bundle carries the deadlock report
// and the flight-recorder's deadlock event.
func TestDeadlockDump(t *testing.T) {
	s, reg, _ := diagTestServer(t)

	rr := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/flow", nil)
	const report = "tile 0: actor dct blocked on full channel"
	s.writeError(rr, req, &sim.DeadlockError{Cycle: 42, Report: report})
	if rr.Code != http.StatusUnprocessableEntity {
		t.Fatalf("deadlock status = %d, want 422", rr.Code)
	}

	recs, total := reg.List(runlog.Filter{Kind: "diag"}, 0, 0)
	if total != 1 {
		t.Fatalf("%d diag records after deadlock, want 1", total)
	}
	rec := recs[0]
	if rec.Outcome != "deadlock" || rec.BaselineKey != "diag/deadlock" {
		t.Fatalf("deadlock dump record = %+v", rec)
	}
	manifest, err := reg.ReadArtifact(rec.ID, "diag.json")
	if err != nil {
		t.Fatal(err)
	}
	var b diag.Bundle
	if err := json.Unmarshal(manifest, &b); err != nil {
		t.Fatal(err)
	}
	if b.Deadlock != report {
		t.Fatalf("bundle deadlock = %q, want %q", b.Deadlock, report)
	}
	found := false
	for _, e := range b.Events {
		if e.Name == "deadlock" && e.Detail == report {
			found = true
		}
	}
	if !found {
		t.Fatalf("no deadlock event in bundle ring: %+v", b.Events)
	}
}

// TestDeadlockDumpSkipsCPUProfile: at the default dump settings a
// deadlock 422 does not wait for a CPU profile; its bundle still carries
// the heap and goroutine profiles.
func TestDeadlockDumpSkipsCPUProfile(t *testing.T) {
	s, reg, _ := diagTestServer(t)
	s.dumpCPU = dumpCPUDuration

	rr := httptest.NewRecorder()
	start := time.Now()
	s.writeError(rr, httptest.NewRequest("POST", "/v1/flow", nil), &sim.DeadlockError{Cycle: 7, Report: "tile 0: blocked"})
	if took := time.Since(start); took >= 50*time.Millisecond {
		t.Errorf("deadlock 422 took %v, want under 50ms", took)
	}
	if rr.Code != http.StatusUnprocessableEntity {
		t.Fatalf("deadlock status = %d, want 422", rr.Code)
	}
	recs, total := reg.List(runlog.Filter{Kind: "diag"}, 0, 0)
	if total != 1 {
		t.Fatalf("%d diag records after deadlock, want 1", total)
	}
	profiles := recs[0].Profiles
	if _, ok := profiles[diag.ProfileCPU]; ok {
		t.Errorf("deadlock bundle carries a CPU profile: %v", profiles)
	}
	for _, name := range []string{diag.ProfileHeap, diag.ProfileGoroutine} {
		if _, ok := profiles[name]; !ok {
			t.Errorf("deadlock bundle lacks the %s profile: %v", name, profiles)
		}
	}
}

// TestTraceparentPropagation checks the W3C trace-context contract on
// the wire: an incoming traceparent is continued as a child span and
// echoed on the response, a malformed one is replaced by a fresh trace,
// and the IDs land on the recorded run.
func TestTraceparentPropagation(t *testing.T) {
	s, reg, _ := diagTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	body := `{"workload":` + smallMJPEG + `,"tiles":5,"iterations":-1}`
	req, err := http.NewRequest("POST", ts.URL+"/v1/flow", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flow: status %d", resp.StatusCode)
	}
	child, err := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if err != nil {
		t.Fatalf("response traceparent invalid: %v", err)
	}
	if child.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("response trace ID %s, want the incoming trace continued", child.TraceID)
	}
	if child.SpanID == "00f067aa0ba902b7" {
		t.Fatal("response span ID equals the parent's — no child span was minted")
	}

	recs, total := reg.List(runlog.Filter{Kind: "flow"}, 0, 0)
	if total != 1 {
		t.Fatalf("%d flow records, want 1", total)
	}
	if recs[0].TraceID != child.TraceID || recs[0].SpanID != child.SpanID {
		t.Fatalf("record trace %s/%s, want %s/%s",
			recs[0].TraceID, recs[0].SpanID, child.TraceID, child.SpanID)
	}

	// A malformed traceparent must not poison the response: a fresh
	// trace is minted instead.
	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("traceparent", "garbage")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	fresh, err := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if err != nil {
		t.Fatalf("fresh traceparent invalid: %v", err)
	}
	if fresh.TraceID == child.TraceID {
		t.Fatal("malformed traceparent reused another request's trace ID")
	}
}

// TestProcessHealthMetrics checks the runtime-health gauges ride the
// existing scrape contract: present, typed, and parseable by the same
// checker the obs smoke test runs.
func TestProcessHealthMetrics(t *testing.T) {
	s, _, _ := diagTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, data := get(t, ts, "/metrics")
	text := string(data)
	for _, want := range []string{
		"mamps_goroutines ",
		"mamps_heap_bytes ",
		"mamps_gc_pause_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if err := promtest.CheckPrometheusText(bytes.NewReader(data)); err != nil {
		t.Fatalf("scrape not well-formed: %v", err)
	}
}

// TestRecorderDisabled checks that every instrumented path tolerates a
// nil flight recorder, as the diag package promises.
func TestRecorderDisabled(t *testing.T) {
	s := New(Config{Workers: 1})
	s.recorder, s.dumpCPU = nil, 0
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with recorder off: %d", resp.StatusCode)
	}
	// A dump still works — it just has no events and is not persisted.
	resp, data := post(t, ts, "/debug/dump", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dump with recorder off: %d: %s", resp.StatusCode, data)
	}
}
