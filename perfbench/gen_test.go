package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mamps/internal/mjpeg"
	"mamps/internal/modelio"
	"mamps/internal/runlog"
	"mamps/internal/service"
)

// sequenceBytes renders a workload's set-up requests and the first n of
// its timed sequence.
func sequenceBytes(t *testing.T, name string, seed int64, n int) []byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	reqs := append([]request(nil), w.warmup...)
	for i := 0; i < n; i++ {
		reqs = append(reqs, w.seq.at(i))
	}
	raw, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestSeedDeterminesSequence(t *testing.T) {
	for _, name := range workloadNames {
		a := sequenceBytes(t, name, 7, 300)
		if b := sequenceBytes(t, name, 7, 300); string(a) != string(b) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if c := sequenceBytes(t, name, 8, 300); string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
}

// TestAppTemplateIsTheModel checks the embedded inline model against the
// MJPEG graph the repository builds: with the base WCETs it must be the
// XML that modelio writes for it, byte for byte.
func TestAppTemplateIsTheModel(t *testing.T) {
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 48, 32, 2, 90, mjpeg.Sampling420)
	if err != nil {
		t.Fatal(err)
	}
	app, _, err := mjpeg.BuildApp(stream)
	if err != nil {
		t.Fatal(err)
	}
	want, err := modelio.WriteApp(app)
	if err != nil {
		t.Fatal(err)
	}
	if got := appXML(baseWCET); strings.TrimSpace(got) != strings.TrimSpace(string(want)) {
		t.Errorf("template differs from the model:\n%s\nwant:\n%s", got, want)
	}
	q, err := app.Graph.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range app.Graph.Actors() {
		if q[a.ID] != repetitions[i] {
			t.Errorf("%s repeats %d times per iteration, generator assumes %d", a.Name, q[a.ID], repetitions[i])
		}
	}
}

func TestTimedRequestsAreDistinct(t *testing.T) {
	for _, name := range []string{"flow-cold", "analysis-mix", "flow-recorded"} {
		w, err := newWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, r := range w.warmup {
			seen[r.Path+string(r.Body)] = true
		}
		for i := 0; i < 3000; i++ {
			r := w.seq.at(i)
			if seen[r.Path+string(r.Body)] {
				t.Fatalf("%s: request %d repeats an earlier one", name, i)
			}
			seen[r.Path+string(r.Body)] = true
		}
	}
}

// TestGeneratedRequestsPassChecks sends each workload's set-up requests
// and the first requests of its timed sequence to an in-process service
// at its default configuration, and applies the benchmark's checks.
func TestGeneratedRequestsPassChecks(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := service.Config{}
			if w.runlog {
				reg, err := runlog.Open(t.TempDir(), runlog.Options{MaxRecords: 10000})
				if err != nil {
					t.Fatal(err)
				}
				defer reg.Close()
				cfg.RunLog = reg
			}
			srv := service.New(cfg)
			defer srv.Shutdown(context.Background())
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			b := &bench{w: w}
			b.primed = make([][]byte, len(w.warmup))
			for _, req := range w.warmup {
				body, _, err := b.do(http.DefaultClient, ts.URL, req, nil)
				if err != nil {
					t.Fatalf("warm-up: %v", err)
				}
				if req.Key >= 0 {
					b.primed[req.Key] = normalize(body)
				}
			}
			for i := 0; i < 4; i++ {
				req := w.seq.at(i)
				if _, _, err := b.do(http.DefaultClient, ts.URL, req, b.primedFor(req)); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
		})
	}
}

func TestChecksRejectWrongAnswers(t *testing.T) {
	flow := request{Path: "/v1/flow", Key: -1}
	if _, err := check(flow, 200, []byte(`{"worstCase":{"itersPerCycle":2},"expected":{"itersPerCycle":3},"measured":{"itersPerCycle":1}}`), nil); err == nil {
		t.Error("measured below the worst-case bound passed")
	}
	if _, err := check(flow, 500, []byte(`{}`), nil); err == nil {
		t.Error("status 500 passed")
	}
	an := request{Path: "/v1/analyze", Target: 2, Key: -1}
	if _, err := check(an, 200, []byte(`{"achieved":{"itersPerCycle":1}}`), nil); err == nil {
		t.Error("achieved below target passed")
	}
	front := []dsePoint{
		{Label: "a", Throughput: throughput{2}, Slices: 10, EnergyPJ: 5, Pareto: true},
		{Label: "b", Throughput: throughput{1}, Slices: 10, EnergyPJ: 5, Pareto: true},
	}
	if checkFront(front) == nil {
		t.Error("a dominated front point passed")
	}
	hit := request{Path: "/v1/analyze", Key: 0}
	primed := normalize([]byte("{\n  \"achieved\": {\"itersPerCycle\": 1},\n  \"cached\": false,\n  \"elapsedMS\": 3.2\n}"))
	if _, err := check(hit, 200, []byte("{\n  \"achieved\": {\"itersPerCycle\": 1},\n  \"cached\": true,\n  \"elapsedMS\": 0.1\n}"), primed); err != nil {
		t.Errorf("a cache hit differing only in cached/elapsedMS failed: %v", err)
	}
	if _, err := check(hit, 200, []byte("{\n  \"achieved\": {\"itersPerCycle\": 2},\n  \"cached\": true,\n  \"elapsedMS\": 0.1\n}"), primed); err == nil {
		t.Error("a cache hit with a different answer passed")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the benchmark program in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	sort.Strings(e2e)
	want := []string{"cpu_ms_per_op ms", "latency_p50_ms ms", "latency_p99_ms ms", "peak_rss_mb MiB", "setup_s s", "throughput_rps 1/s"}
	if !reflect.DeepEqual(e2e, want) {
		t.Errorf("end_to_end %v, program prints %v", e2e, want)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
