package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"mamps/internal/clock"
	"mamps/internal/faults"
	"mamps/internal/runlog"
	"mamps/internal/service"
)

// selectorRegistry fills dir with seven records, one hour apart: a flow,
// a DSE sweep, a deadlocked flow, a degraded flow under an injected
// fault, a faulted flow, and two replays of corpus entry fig2 of which
// the second drifted from the first (its baseline) and is regressed.
func selectorRegistry(t *testing.T, dir string) []runlog.Record {
	t.Helper()
	clk := &clock.Fake{}
	reg, err := runlog.Open(dir, runlog.Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	spec := &faults.Spec{Seed: 7}
	var stored []runlog.Record
	for i, rec := range []runlog.Record{
		{Kind: "flow", App: "mjpeg", GraphKey: "aaaa1111", Outcome: "ok", Bound: 0.1},
		{Kind: "dse", App: "mjpeg", GraphKey: "aaaa1111", Outcome: "ok", Bound: 0.2},
		{Kind: "flow", App: "other", GraphKey: "bbbb2222", Outcome: "deadlock", Error: "deadlock"},
		{Kind: "flow", App: "mjpeg", GraphKey: "aaaa1111", Outcome: "degraded", Bound: 0.1,
			Config: runlog.ConfigSummary{Faults: spec}},
		{Kind: "flow", App: "other", GraphKey: "cccc3333", Outcome: "ok", Bound: 0.3,
			Config: runlog.ConfigSummary{Faults: spec}},
		{Kind: "flow", App: "fig2", GraphKey: "dddd4444", Corpus: "fig2", Outcome: "ok", Bound: 0.4},
		{Kind: "flow", App: "fig2", GraphKey: "dddd4444", Corpus: "fig2", Outcome: "ok", Bound: 0.5},
	} {
		clk.Advance(time.Hour)
		got, err := reg.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			if _, err := reg.SetBaseline(got.ID); err != nil {
				t.Fatal(err)
			}
		}
		stored = append(stored, got)
	}
	if r := stored[6].Regression; r == nil || !r.Regressed {
		t.Fatalf("drifted corpus replay not regressed: %+v", r)
	}
	return stored
}

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = old
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestOneRunSelector: GET /v1/runs, GET /v1/stats, `list` and `stats`
// select the same records for every filter, because all four build the
// one runlog.Filter. Each filter is checked against its expected count
// too, so a predicate one front end ignores cannot pass by matching
// everything everywhere.
func TestOneRunSelector(t *testing.T) {
	dir := t.TempDir()
	recs := selectorRegistry(t, dir)
	since := recs[3].Time.Format(time.RFC3339)

	reg, err := runlog.Open(dir, runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	s := service.New(service.Config{Workers: 1, RunLog: reg})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}

	for _, tc := range []struct {
		query string   // the /v1/runs and /v1/stats query string
		args  []string // the same filter as list and stats flags
		want  int
	}{
		{"", nil, 7},
		{"app=mjpeg", []string{"-app", "mjpeg"}, 3},
		{"kind=dse", []string{"-kind", "dse"}, 1},
		{"graphKey=aaaa", []string{"-graph-key", "aaaa"}, 3},
		{"baselineKey=corpus/fig2", []string{"-baseline-key", "corpus/fig2"}, 2},
		{"corpus=fig2", []string{"-corpus", "fig2"}, 2},
		{"corpus=nope", []string{"-corpus", "nope"}, 0},
		{"regressed=1", []string{"-regressed"}, 1},
		{"degraded=true", []string{"-degraded"}, 1},
		{"deadlocked=1", []string{"-deadlocked"}, 1},
		{"faulted=1", []string{"-faulted"}, 2},
		{"since=" + since, []string{"-since", since}, 4},
		{"until=" + since, []string{"-until", since}, 3},
		{"app=mjpeg&faulted=1", []string{"-app", "mjpeg", "-faulted"}, 1},
	} {
		var list struct{ Total int }
		get("/v1/runs?limit=0&"+tc.query, &list)
		var stats struct{ Matched int }
		get("/v1/stats?"+tc.query, &stats)

		out := capture(t, func() error { return cmdList(dir, append([]string{"-limit", "0"}, tc.args...)) })
		var listed, cliTotal int
		if _, err := fmt.Sscanf(out[strings.LastIndex(strings.TrimSpace(out), "\n")+1:],
			"%d of %d run(s)", &listed, &cliTotal); err != nil {
			t.Fatalf("list %v: unparsable summary in\n%s", tc.args, out)
		}
		var cliStats struct{ Matched int }
		out = capture(t, func() error { return cmdStats(dir, append([]string{"-json"}, tc.args...)) })
		if err := json.Unmarshal([]byte(out), &cliStats); err != nil {
			t.Fatalf("stats %v -json: %v\n%s", tc.args, err, out)
		}

		got := []int{list.Total, stats.Matched, cliTotal, cliStats.Matched}
		for i, n := range got {
			if n != tc.want {
				t.Errorf("%q: /v1/runs, /v1/stats, list, stats matched %v; want %d everywhere (front end %d differs)",
					tc.query, got, tc.want, i)
				break
			}
		}
	}
}
