package agg

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"mamps/internal/runlog"
)

// mkRec builds a minimal flow record.
func mkRec(graphKey, app, outcome string, bound, measured float64, at time.Time) runlog.Record {
	return runlog.Record{
		Kind: "flow", App: app, GraphKey: graphKey, Outcome: outcome,
		Bound: bound, Measured: measured, Time: at,
		Steps: []runlog.StageTime{
			{Name: "Mapping the design (SDF3)", Micros: 100},
			{Name: "Executing on platform", Micros: 300},
		},
		Counters: runlog.Counters{StatesExplored: 4000},
	}
}

var t0 = time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)

// aggregate folds in-memory records through the query, the way the
// stats endpoint folds a registry's.
func aggregate(recs []runlog.Record, q Query) (*Report, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	a := New(q)
	for i := range recs {
		a.Add(&recs[i])
	}
	return a.Report()
}

func TestAggregateGroupsAndPercentiles(t *testing.T) {
	var recs []runlog.Record
	// Graph A: 10 runs with bounds spread over one bucket decade.
	for i := 0; i < 10; i++ {
		recs = append(recs, mkRec("aaaa1111", "mjpeg", "ok", 0.001*float64(i+1), 0.0009, t0.Add(time.Duration(i)*time.Minute)))
	}
	// Graph B: 2 runs, one degraded.
	recs = append(recs, mkRec("bbbb2222", "other", "ok", 0.5, 0.4, t0))
	recs = append(recs, mkRec("bbbb2222", "other", "degraded", 0.25, 0.2, t0))

	rep, err := aggregate(recs, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GroupBy != "graphKey" || rep.Scanned != 12 || rep.Matched != 12 {
		t.Fatalf("header = %s/%d/%d", rep.GroupBy, rep.Scanned, rep.Matched)
	}
	if len(rep.Groups) != 2 || rep.Groups[0].Key != "aaaa1111" || rep.Groups[1].Key != "bbbb2222" {
		t.Fatalf("groups = %+v", rep.Groups)
	}
	a := rep.Groups[0]
	if a.Runs != 10 || a.Outcomes["ok"] != 10 {
		t.Errorf("group a: %+v", a)
	}
	bd := a.Metrics[MetricBound]
	if bd.Count != 10 || bd.Min != 0.001 || bd.Max != 0.01 {
		t.Errorf("bound dist = %+v", bd)
	}
	if math.Abs(bd.Mean-0.0055) > 1e-12 {
		t.Errorf("bound mean = %g, want 0.0055", bd.Mean)
	}
	// Percentiles are monotone and inside the observed decade.
	if !(bd.P50 <= bd.P95 && bd.P95 <= bd.P99) || bd.P50 < 0.001 || bd.P99 > 0.025 {
		t.Errorf("percentiles not sane: %+v", bd)
	}
	// Stage distributions are per stage name.
	if st := a.Stages["Executing on platform"]; st.Count != 10 || st.Min != 300 {
		t.Errorf("stage dist = %+v", st)
	}
	// statesPerSec = 4000 states / 400µs = 1e7.
	if sp := a.Metrics[MetricStatesPerS]; sp.Count != 10 || sp.Min != 1e7 || sp.Max != 1e7 {
		t.Errorf("statesPerSec = %+v", sp)
	}
	// The total row merges both groups.
	if rep.Total.Runs != 12 || rep.Total.Outcomes["degraded"] != 1 {
		t.Errorf("total = %+v", rep.Total)
	}
	if tb := rep.Total.Metrics[MetricBound]; tb.Count != 12 || tb.Max != 0.5 {
		t.Errorf("total bound = %+v", tb)
	}
}

// TestGroupBy: the grouping dimensions, and a filter ahead of them
// (record selection itself is runlog.Filter's, tested there).
func TestGroupBy(t *testing.T) {
	recs := []runlog.Record{
		mkRec("aaaa", "mjpeg", "ok", 0.1, 0.09, t0),
		mkRec("bbbb", "mjpeg", "degraded", 0.1, 0.05, t0.Add(time.Hour)),
		mkRec("cccc", "other", "deadlock", 0, 0, t0.Add(2*time.Hour)),
	}
	if _, err := aggregate(recs, Query{GroupBy: "bogus"}); err == nil {
		t.Error("bogus groupBy accepted")
	}
	rep, err := aggregate(recs, Query{GroupBy: "outcome"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 3 || rep.Groups[0].Key != "deadlock" {
		t.Errorf("outcome groups = %+v", rep.Groups)
	}
	rep, _ = aggregate(recs, Query{GroupBy: "none"})
	if len(rep.Groups) != 1 || rep.Groups[0].Key != "(none)" {
		t.Errorf("none groups = %+v", rep.Groups)
	}
	rep, _ = aggregate(recs, Query{Filter: runlog.Filter{App: "mjpeg"}, GroupBy: "outcome"})
	if rep.Scanned != 3 || rep.Matched != 2 || len(rep.Groups) != 2 || rep.Groups[0].Key != "degraded" {
		t.Errorf("filtered report = %d scanned, %d matched, groups %+v", rep.Scanned, rep.Matched, rep.Groups)
	}
}

func TestScanJSONLStreamsAndToleratesTruncation(t *testing.T) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := 0; i < 5; i++ {
		if err := enc.Encode(mkRec("gggg", "mjpeg", "ok", 0.01, 0.009, t0)); err != nil {
			t.Fatal(err)
		}
	}
	full := b.String()

	rep, err := ScanJSONL(strings.NewReader(full), Query{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 5 || rep.Truncated {
		t.Fatalf("clean scan = %d matched, truncated=%v", rep.Matched, rep.Truncated)
	}

	// A crash-truncated tail: the scan keeps the intact prefix.
	cut := full[:len(full)-20] + "\n"
	rep, err = ScanJSONL(strings.NewReader(cut), Query{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 4 || !rep.Truncated {
		t.Fatalf("truncated scan = %d matched, truncated=%v", rep.Matched, rep.Truncated)
	}
}

// The rendered report is byte-deterministic: same records, same bytes.
func TestReportDeterministic(t *testing.T) {
	recs := []runlog.Record{
		mkRec("x1", "a", "ok", 0.1, 0.09, t0),
		mkRec("x2", "b", "degraded", 0.2, 0.1, t0),
		mkRec("x1", "a", "ok", 0.15, 0.14, t0),
	}
	render := func() []byte {
		rep, err := aggregate(recs, Query{GroupBy: "graphKey"})
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	first := render()
	for i := 0; i < 10; i++ {
		if got := render(); !bytes.Equal(got, first) {
			t.Fatalf("render %d differs:\n%s\n%s", i, got, first)
		}
	}
}

func TestDecades125(t *testing.T) {
	bs := Decades125(0.5, 20)
	// Ascending, spanning the range.
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Fatalf("bounds not ascending: %v", bs)
		}
	}
	if bs[0] > 0.5 || bs[len(bs)-1] < 20 {
		t.Errorf("bounds %v do not span [0.5, 20]", bs)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad range did not panic")
		}
	}()
	Decades125(-1, 5)
}
