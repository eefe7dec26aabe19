package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mamps/internal/modelio"
	"mamps/internal/runlog"
	"mamps/internal/runlog/ledger"
)

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestRunsEndpointsRoundTrip is the wire-level acceptance test of the
// run registry: flow runs executed through the service are recorded,
// listable, retrievable with their kernel counters and Perfetto trace,
// and diffable over HTTP.
func TestRunsEndpointsRoundTrip(t *testing.T) {
	reg, err := runlog.Open(t.TempDir(), runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := New(Config{Workers: 2, RunLog: reg})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two identical flow requests: the second is a cache hit and must NOT
	// append a second record.
	body := `{"workload":` + smallMJPEG + `,"tiles":5,"iterations":-1}`
	for i := 0; i < 2; i++ {
		resp, data := post(t, ts, "/v1/flow", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("flow %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	// A different configuration appends a second record.
	resp, data := post(t, ts, "/v1/flow", `{"workload":`+smallMJPEG+`,"tiles":5,"iterations":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flow variant: status %d: %s", resp.StatusCode, data)
	}

	resp, data = get(t, ts, "/v1/runs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/runs: %d: %s", resp.StatusCode, data)
	}
	var list modelio.RunListJSON
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatalf("list not JSON: %v\n%s", err, data)
	}
	if list.Total != 2 || len(list.Runs) != 2 {
		t.Fatalf("list = %d/%d runs (cache hit appended a record?):\n%s", len(list.Runs), list.Total, data)
	}
	newest, oldest := list.Runs[0], list.Runs[1]
	if oldest.Kind != "flow" || oldest.Outcome != "ok" || oldest.App == "" || oldest.GraphKey == "" {
		t.Fatalf("recorded run malformed: %+v", oldest)
	}
	if oldest.Bound <= 0 || oldest.Measured <= 0 || oldest.Cycles <= 0 {
		t.Errorf("run lacks throughput numbers: bound=%g measured=%g cycles=%d",
			oldest.Bound, oldest.Measured, oldest.Cycles)
	}
	if oldest.Counters.Analyses == 0 || oldest.Counters.StatesExplored == 0 || oldest.Counters.SimSteps == 0 {
		t.Errorf("run lacks kernel counters: %+v", oldest.Counters)
	}
	if len(oldest.Steps) == 0 {
		t.Error("run lacks per-stage wall times")
	}
	// Both runs share the graph but differ in config, so their baseline
	// keys must differ (different iteration counts are not comparable).
	if newest.GraphKey != oldest.GraphKey {
		t.Errorf("same workload, different graph keys")
	}
	if newest.BaselineKey == oldest.BaselineKey {
		t.Error("different configs share a baseline key")
	}

	// Filtering and paging.
	resp, data = get(t, ts, "/v1/runs?kind=dse")
	json.Unmarshal(data, &list)
	if list.Total != 0 {
		t.Errorf("kind=dse total = %d, want 0", list.Total)
	}
	resp, data = get(t, ts, "/v1/runs?limit=1&offset=1")
	json.Unmarshal(data, &list)
	if list.Total != 2 || len(list.Runs) != 1 || list.Runs[0].ID != oldest.ID {
		t.Errorf("paged list wrong: %s", data)
	}
	resp, _ = get(t, ts, "/v1/runs?limit=x")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", resp.StatusCode)
	}

	// Get by ID.
	resp, data = get(t, ts, "/v1/runs/"+oldest.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET run: %d", resp.StatusCode)
	}
	var rec runlog.Record
	if err := json.Unmarshal(data, &rec); err != nil || rec.ID != oldest.ID {
		t.Fatalf("get by ID = %+v, %v", rec, err)
	}
	// A malformed ID is rejected before any lookup; a well-formed but
	// unknown one is a plain miss.
	resp, _ = get(t, ts, "/v1/runs/nosuch")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed run id: status %d, want 400", resp.StatusCode)
	}
	resp, _ = get(t, ts, "/v1/runs/r999999-nokey")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run: status %d, want 404", resp.StatusCode)
	}

	// The Perfetto trace artifact.
	resp, data = get(t, ts, "/v1/runs/"+oldest.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d: %s", resp.StatusCode, data)
	}
	var trace any
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if !strings.Contains(string(data), "SDF3") {
		t.Error("trace lacks the flow stage spans")
	}

	// Compare the two runs.
	resp, data = get(t, ts, "/v1/runs/compare?a="+oldest.ID+"&b="+newest.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET compare: %d: %s", resp.StatusCode, data)
	}
	var d runlog.Diff
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.A != oldest.ID || d.B != newest.ID {
		t.Errorf("diff ids = %s/%s", d.A, d.B)
	}
	if d.GraphKeyChanged {
		t.Error("same graph flagged as changed")
	}
	// 2 iterations vs the full input must show in the simulated cycles.
	if !d.Cycles.Changed() {
		t.Errorf("iteration-count change invisible in diff: %+v", d.Cycles)
	}
	resp, _ = get(t, ts, "/v1/runs/compare?a="+oldest.ID)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("compare without b: status %d, want 400", resp.StatusCode)
	}

	// The registry's metrics are on /metrics, along with the new
	// build-info and queue-wait series.
	resp, data = get(t, ts, "/metrics")
	for _, want := range []string{
		"mamps_runlog_records 2",
		"mamps_regressions_total 0",
		"mamps_build_info{version=",
		"go_version=\"go",
		"mamps_process_start_time_seconds",
		"mamps_job_queue_wait_seconds_bucket",
		"mamps_job_queue_wait_seconds_count",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRunQueryStrict: /v1/runs and /v1/stats share one strict query
// parser, so each answers an unknown parameter or a malformed boolean,
// integer or time with a 400 naming it — the first in sorted order when
// several are bad — instead of a listing of every run.
func TestRunQueryStrict(t *testing.T) {
	reg, err := runlog.Open(t.TempDir(), runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := New(Config{Workers: 1, RunLog: reg})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	both := []string{"/v1/runs", "/v1/stats"}
	for _, tc := range []struct {
		paths []string
		query string
		want  string // the error's naming of the parameter
	}{
		{both, "regressed=yes", `bad regressed "yes"`},
		{both, "regresed=1", `unknown query parameter "regresed"`},
		{both, "faulted=2", `bad faulted "2"`},
		{both, "since=notatime", `bad since "notatime"`},
		{both, "until=x&since=y", `bad since "y"`},
		{both, "kind=flow&zeta=1&alpha=2", `unknown query parameter "alpha"`},
		{both, "offset=1&graph-key=ab", `unknown query parameter "graph-key"`},
		{[]string{"/v1/runs"}, "limit=x", `bad limit "x"`},
		{[]string{"/v1/runs"}, "offset=-1", `bad offset "-1"`},
		{[]string{"/v1/runs"}, "groupBy=app", `unknown query parameter "groupBy"`},
		{[]string{"/v1/stats"}, "limit=5", `unknown query parameter "limit"`},
		{[]string{"/v1/stats"}, "groupBy=bogus", `bad groupBy "bogus"`},
	} {
		for _, path := range tc.paths {
			resp, data := get(t, ts, path+"?"+tc.query)
			var body modelio.ErrorJSON
			json.Unmarshal(data, &body)
			if resp.StatusCode != http.StatusBadRequest || body.Kind != "validation" || !strings.Contains(body.Error, tc.want) {
				t.Errorf("GET %s?%s: %d %s; want a 400 validation error containing %s",
					path, tc.query, resp.StatusCode, data, tc.want)
			}
		}
	}
	for _, path := range []string{
		"/v1/runs?corpus=nope&deadlocked=1&faulted=true&degraded=&limit=0&offset=3",
		"/v1/stats?corpus=nope&deadlocked=1&faulted=true&degraded=&groupBy=outcome",
	} {
		if resp, data := get(t, ts, path); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d %s, want 200", path, resp.StatusCode, data)
		}
	}
}

// TestRunsEndpointsDisabled pins the behaviour without -runlog: the
// endpoints exist but answer 404 with a hint.
func TestRunsEndpointsDisabled(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/runs", "/v1/runs/x", "/v1/runs/x/trace", "/v1/runs/compare?a=x&b=y"} {
		resp, data := get(t, ts, path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
		if !strings.Contains(string(data), "-runlog") {
			t.Errorf("GET %s: no enable hint in %s", path, data)
		}
	}
}

// TestDSERunRecorded covers the DSE recording path: a sweep appends one
// "dse" record carrying the best bound and the explorer counters.
func TestDSERunRecorded(t *testing.T) {
	reg, err := runlog.Open(t.TempDir(), runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := New(Config{Workers: 2, RunLog: reg})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := post(t, ts, "/v1/dse", `{"workload":`+smallMJPEG+`,"minTiles":2,"maxTiles":2,"interconnects":["fsl"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dse: %d: %s", resp.StatusCode, data)
	}
	recs, total := reg.List(runlog.Filter{Kind: "dse"}, 0, 0)
	if total != 1 {
		t.Fatalf("dse records = %d, want 1", total)
	}
	rec := recs[0]
	if rec.Outcome != "ok" || rec.Bound <= 0 || rec.Counters.StatesExplored == 0 {
		t.Fatalf("dse record malformed: %+v", rec)
	}
	if !strings.HasPrefix(rec.BaselineKey, "graph/") || !strings.Contains(rec.BaselineKey, "/dse/") {
		t.Errorf("dse baseline key = %q", rec.BaselineKey)
	}
}

// TestRunProofEndpoint: the proof endpoint returns a decodable
// inclusion proof whose leaf is the record's chain hash and which
// verifies against the root advertised on /metrics.
func TestRunProofEndpoint(t *testing.T) {
	reg, err := runlog.Open(t.TempDir(), runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	var recs []runlog.Record
	for i := 0; i < 3; i++ {
		rec, err := reg.Append(runlog.Record{Kind: "flow", App: "mjpeg", GraphKey: "gk", Outcome: "ok", Bound: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	s := New(Config{Workers: 1, RunLog: reg})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := get(t, ts, "/v1/runs/"+recs[1].ID+"/proof")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET proof: %d: %s", resp.StatusCode, data)
	}
	var ip runlog.InclusionProof
	if err := json.Unmarshal(data, &ip); err != nil {
		t.Fatal(err)
	}
	if ip.RunID != recs[1].ID || ip.Proof.Leaf != recs[1].RecordHash {
		t.Fatalf("proof identity: %+v vs %+v", ip, recs[1])
	}
	// The wire form round-trips through the strict decoder and verifies.
	wire, _ := json.Marshal(ip.Proof)
	p, err := ledger.DecodeProof(wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}

	// /metrics advertises the same root, pinned as an info gauge.
	resp, data = get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	want := `mamps_ledger_root{root="` + p.Root + `"} 1`
	if !strings.Contains(string(data), want) {
		t.Fatalf("/metrics lacks %q", want)
	}
	if !strings.Contains(string(data), "mamps_ledger_appends_total 3") {
		t.Error("/metrics lacks mamps_ledger_appends_total")
	}

	// Proof requests are subject to the same ID validation.
	if resp, _ := get(t, ts, "/v1/runs/r999999-nokey/proof"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run proof: %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/runs/../proof"); resp.StatusCode == http.StatusOK {
		t.Error("traversal proof request succeeded")
	}
}

// TestRunIDTraversalRejected: percent-encoded separators decode inside
// a Go 1.22 path value, so the handlers must reject IDs that fail the
// strict pattern before any path join — with a 400, not a filesystem
// probe.
func TestRunIDTraversalRejected(t *testing.T) {
	reg, err := runlog.Open(t.TempDir(), runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := New(Config{Workers: 1, RunLog: reg})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{
		"/v1/runs/..%2F..%2Fsecret",
		"/v1/runs/..%2F..%2Fsecret/trace",
		"/v1/runs/..%2F..%2Fsecret/proof",
		"/v1/runs/r000001-abcd%2F..%2F..%2Fx/trace",
		"/v1/runs/R000001-ABCD",
		"/v1/runs/r000001-abcd%00/trace",
	} {
		resp, data := get(t, ts, path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400 (%s)", path, resp.StatusCode, data)
		}
	}
}

// recordedServer starts a server with a fresh run registry.
func recordedServer(t *testing.T) (*runlog.Registry, *httptest.Server) {
	t.Helper()
	reg, err := runlog.Open(t.TempDir(), runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, RunLog: reg})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
		reg.Close()
	})
	return reg, ts
}

// metricTotal reads one unlabelled sample from /metrics.
func metricTotal(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	_, data := get(t, ts, "/metrics")
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var n int64
			if _, err := fmt.Sscan(v, &n); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics lacks %s", name)
	return 0
}

// recordOf serves one recorded request and returns its record and the
// analyses and states /metrics counted for it, checking that /metrics
// counted exactly the explorations the request ran: one per warm-start
// miss, none for the memo's answers.
func recordOf(t *testing.T, reg *runlog.Registry, ts *httptest.Server, path, body string) (rec runlog.Record, ran, states int64) {
	t.Helper()
	analyses := metricTotal(t, ts, "mamps_statespace_analyses_total")
	states = metricTotal(t, ts, "mamps_statespace_states_total")
	misses := metricTotal(t, ts, "mamps_warmstart_misses_total")
	n := reg.Len()
	if resp, data := post(t, ts, path, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %d: %s", path, body, resp.StatusCode, data)
	}
	if reg.Len() != n+1 {
		t.Fatalf("%s %s appended %d records, want 1", path, body, reg.Len()-n)
	}
	ran = metricTotal(t, ts, "mamps_statespace_analyses_total") - analyses
	states = metricTotal(t, ts, "mamps_statespace_states_total") - states
	if missed := metricTotal(t, ts, "mamps_warmstart_misses_total") - misses; ran != missed {
		t.Errorf("%s %s: /metrics counted %d analyses for %d explorations", path, body, ran, missed)
	}
	recs, _ := reg.List(runlog.Filter{}, 0, 1)
	return recs[0], ran, states
}

// TestRecordedCountersIndependentOfMemo: a recorded run's counters are
// what a cold run on a private memo counts, whatever an earlier request
// left in the shared analysis memo, while /metrics counts only the
// explorations that actually ran. On a fresh server the shared memo is
// such a private one, so there the record equals the /metrics delta.
func TestRecordedCountersIndependentOfMemo(t *testing.T) {
	type pair struct{ path, a, b string }
	var cases []pair
	for _, tiles := range []int{2, 3, 5} {
		for _, ic := range []string{"fsl", "noc"} {
			// A executes fewer iterations than B on the same platform, so
			// the two share B's mapping analysis and differ in the
			// expected-case one.
			cfg := fmt.Sprintf(`{"workload":%s,"tiles":%d,"interconnect":%q,"iterations":`, smallMJPEG, tiles, ic)
			cases = append(cases, pair{"/v1/flow", cfg + `1}`, cfg + `-1}`})
		}
	}
	dse := func(min, max int, solver bool) string {
		return fmt.Sprintf(`{"workload":%s,"minTiles":%d,"maxTiles":%d,"interconnects":["fsl","noc"],"solver":%t,"solverNodeBudget":64}`,
			smallMJPEG, min, max, solver)
	}
	cases = append(cases,
		pair{"/v1/dse", dse(3, 5, false), dse(2, 4, false)},
		pair{"/v1/dse", dse(2, 3, true), dse(3, 3, true)},
	)
	for _, c := range cases {
		regFresh, fresh := recordedServer(t)
		want, ran, states := recordOf(t, regFresh, fresh, c.path, c.b)
		if want.Counters.Analyses == 0 || want.Counters.Analyses != ran || want.Counters.StatesExplored != states {
			t.Fatalf("%s %s on a fresh server: record counted %d analyses / %d states, /metrics %d / %d",
				c.path, c.b, want.Counters.Analyses, want.Counters.StatesExplored, ran, states)
		}

		regWarm, warm := recordedServer(t)
		recordOf(t, regWarm, warm, c.path, c.a)
		exact := metricTotal(t, warm, "mamps_warmstart_exact_hits_total")
		got, _, _ := recordOf(t, regWarm, warm, c.path, c.b)
		if metricTotal(t, warm, "mamps_warmstart_exact_hits_total") == exact {
			t.Errorf("%s %s after %s: no memo hit, the case shares no analysis", c.path, c.b, c.a)
		}
		if got.Counters != want.Counters {
			t.Errorf("%s %s after %s: counters\n got %+v\nwant %+v", c.path, c.b, c.a, got.Counters, want.Counters)
		}
	}
}
