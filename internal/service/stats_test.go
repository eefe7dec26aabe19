package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mamps/internal/obs/agg"
	"mamps/internal/obs/promtest"
	"mamps/internal/runlog"
)

// TestStatsEndpoint is the wire-level acceptance test of /v1/stats:
// recorded runs aggregate into per-graph-key percentile summaries, the
// response is byte-deterministic across repeated queries, and the
// filter/groupBy parameters behave.
func TestStatsEndpoint(t *testing.T) {
	reg, err := runlog.Open(t.TempDir(), runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := New(Config{Workers: 2, RunLog: reg})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two distinct flow configurations over the same graph → two runs.
	for _, body := range []string{
		`{"workload":` + smallMJPEG + `,"tiles":5,"iterations":-1}`,
		`{"workload":` + smallMJPEG + `,"tiles":5,"iterations":2}`,
	} {
		if resp, data := post(t, ts, "/v1/flow", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("flow: %d: %s", resp.StatusCode, data)
		}
	}

	resp, data := get(t, ts, "/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d: %s", resp.StatusCode, data)
	}
	var rep agg.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, data)
	}
	if rep.GroupBy != "graphKey" || rep.Matched != 2 || len(rep.Groups) != 1 {
		t.Fatalf("report header wrong: %s", data)
	}
	g := rep.Groups[0]
	if g.Runs != 2 || g.Outcomes["ok"] != 2 {
		t.Fatalf("group = %+v", g)
	}
	bd, ok := g.Metrics[agg.MetricBound]
	if !ok || bd.Count != 2 || bd.Min <= 0 || bd.P50 <= 0 || bd.P99 < bd.P50 {
		t.Fatalf("bound dist malformed: %+v", bd)
	}
	if _, ok := g.Metrics[agg.MetricStageMicros]; !ok {
		t.Error("stage wall-time metric missing")
	}
	if len(g.Stages) == 0 {
		t.Error("per-stage distributions missing")
	}

	// Byte determinism: the same query renders the same bytes.
	for i := 0; i < 3; i++ {
		_, again := get(t, ts, "/v1/stats")
		if !bytes.Equal(again, data) {
			t.Fatalf("stats not deterministic:\n%s\n%s", again, data)
		}
	}

	// Filters and grouping.
	_, data = get(t, ts, "/v1/stats?kind=dse")
	json.Unmarshal(data, &rep)
	if rep.Matched != 0 {
		t.Errorf("kind=dse matched %d, want 0", rep.Matched)
	}
	_, data = get(t, ts, "/v1/stats?groupBy=app")
	json.Unmarshal(data, &rep)
	if rep.GroupBy != "app" || len(rep.Groups) != 1 {
		t.Errorf("groupBy=app: %s", data)
	}

	// Validation errors are 400s.
	for _, path := range []string{
		"/v1/stats?groupBy=bogus",
		"/v1/stats?degraded=maybe",
		"/v1/stats?since=notatime",
	} {
		if resp, _ := get(t, ts, path); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestStatsUnknownParameter: a query parameter /v1/stats does not know,
// such as a misspelt filter, is a 400 naming it rather than a report
// over every run.
func TestStatsUnknownParameter(t *testing.T) {
	reg, err := runlog.Open(t.TempDir(), runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := New(Config{Workers: 1, RunLog: reg})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for path, name := range map[string]string{
		"/v1/stats?anomalies=1":              "anomalies",
		"/v1/stats?regresed=1":               "regresed",
		"/v1/stats?kind=flow&zeta=1&alpha=2": "alpha",
	} {
		resp, data := get(t, ts, path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, resp.StatusCode)
			continue
		}
		var body struct{ Error, Kind string }
		if err := json.Unmarshal(data, &body); err != nil {
			t.Fatalf("GET %s: %v\n%s", path, err, data)
		}
		if body.Kind != "validation" || !strings.Contains(body.Error, `unknown query parameter "`+name+`"`) {
			t.Errorf("GET %s: error %s, want it to name %q", path, data, name)
		}
	}
	if resp, data := get(t, ts, "/v1/stats?kind=flow&regressed=1&groupBy=app"); resp.StatusCode != http.StatusOK {
		t.Errorf("known parameters: status %d: %s", resp.StatusCode, data)
	}
}

// TestStatsEndpointDisabled pins the no-registry behaviour.
func TestStatsEndpointDisabled(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp, _ := get(t, ts, "/v1/stats"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("stats without runlog: status %d, want 404", resp.StatusCode)
	}
}

// TestMetricsSLOAndChecker covers the SLO board on /metrics and — the
// format satellite — validates the entire exposition with the
// Prometheus line-format checker instead of grepping a few series.
func TestMetricsSLOAndChecker(t *testing.T) {
	reg, err := runlog.Open(t.TempDir(), runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := New(Config{Workers: 2, RunLog: reg})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One recorded run feeds the regression_free objective; the request
	// itself feeds analyze_latency.
	if resp, data := post(t, ts, "/v1/flow", `{"workload":`+smallMJPEG+`,"tiles":5,"iterations":2}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("flow: %d: %s", resp.StatusCode, data)
	}

	resp, data := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	out := string(data)
	for _, want := range []string{
		`mamps_slo_target{slo="analyze_latency"} 0.99`,
		`mamps_slo_target{slo="regression_free"} 0.99`,
		`mamps_slo_target{slo="throughput_met"} 0.95`,
		`mamps_slo_good_total{slo="regression_free"} 1`,
		`mamps_slo_burn_rate{slo="analyze_latency",window="fast"}`,
		`mamps_slo_burn_rate{slo="analyze_latency",window="slow"}`,
		`mamps_slo_budget_used{slo=`,
		`mamps_slo_burning{slo=`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The trace-retention and drift-detector series are gone.
	for _, gone := range []string{"mamps_runlog_traces_", "mamps_anomalies_total"} {
		if strings.Contains(out, gone) {
			t.Errorf("/metrics still exports %q", gone)
		}
	}
	// The whole exposition — gauges, counters, histograms, SLO board —
	// must be well-formed Prometheus text.
	if err := promtest.CheckPrometheusText(strings.NewReader(out)); err != nil {
		t.Errorf("/metrics fails the line-format checker: %v", err)
	}
}
