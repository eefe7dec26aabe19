package flow

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mamps/internal/arch"
	"mamps/internal/clock"
	"mamps/internal/mjpeg"
	"mamps/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// deterministicSet returns a telemetry set whose wall clock is a counter
// (1µs per reading), so exported timestamps are reproducible.
func deterministicSet() *obs.Set {
	var n int64
	return &obs.Set{
		Trace:    obs.New(obs.WithNow(func() int64 { n += 1000; return n })),
		Explorer: obs.NewExplorerStats(nil),
		Sim:      obs.NewSimStats(nil),
	}
}

// smallMJPEGConfig builds the smallest executable workload: one 16x16
// frame is a single 4:2:0 MCU, so the full input is one iteration.
func smallMJPEGConfig(t *testing.T) Config {
	t.Helper()
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 16, 16, 1, 90, mjpeg.Sampling420)
	if err != nil {
		t.Fatal(err)
	}
	app, actors, err := mjpeg.BuildApp(stream)
	if err != nil {
		t.Fatal(err)
	}
	si := actors.VLD.Info()
	return Config{
		App:          app,
		Tiles:        3,
		Interconnect: arch.FSL,
		Iterations:   si.MCUsPerFrame() * si.Frames,
		RefActor:     "Raster",
		Scenario:     "golden",
		Clock:        &clock.Fake{},
	}
}

// TestFlowTraceGolden locks down the Perfetto export of a full small run:
// the whole file, byte for byte, against testdata/flow_trace.golden.json
// (regenerate with -update). Determinism comes from the fake clocks and
// the cycle-accurate simulator.
func TestFlowTraceGolden(t *testing.T) {
	cfg := smallMJPEGConfig(t)
	cfg.Obs = deterministicSet()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := cfg.Obs.Trace.WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "flow_trace.golden.json")
	if *update {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("trace differs from %s (run with -update to regenerate)\ngot %d bytes, want %d",
			golden, b.Len(), len(want))
	}
}

// TestFlowTraceContents checks the structural acceptance criteria: spans
// from every flow stage, state-space analyses, and simulator lanes, in a
// valid trace_event document.
func TestFlowTraceContents(t *testing.T) {
	cfg := smallMJPEGConfig(t)
	cfg.Obs = deterministicSet()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := cfg.Obs.Trace.WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatal("exported trace is not valid JSON")
	}
	out := b.String()
	for _, want := range []string{
		`"Generating architecture model"`,
		`"Mapping the design (SDF3)"`,
		`"Generating Xilinx project (MAMPS)"`,
		`"Synthesis of the system"`,
		`"Executing on platform"`,
		`"Expected-case analysis (SDF3)"`,
		`"analyze"`,       // statespace track
		`"name":"VLD"`,    // simulator actor lane
		`"name":"Raster"`, // simulator actor lane
		`"name":"tiles"`,  // per-tile busy/stall summary lane
		`"busyCycles"`,    // summary attrs
		`"measuredThroughput"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}

	// Kernel counters flowed through the same run.
	if cfg.Obs.Explorer.Analyses.Value() == 0 {
		t.Error("no state-space analyses counted")
	}
	if cfg.Obs.Explorer.StatesTotal.Value() == 0 {
		t.Error("no states counted")
	}
	if cfg.Obs.Sim.Runs.Value() != 1 {
		t.Errorf("sim runs = %d, want 1", cfg.Obs.Sim.Runs.Value())
	}
	if cfg.Obs.Sim.Steps.Value() == 0 || cfg.Obs.Sim.BusyCycles.Value() == 0 {
		t.Error("sim counters empty")
	}
	if cfg.Obs.Sim.MaxWakeHeap.Value() == 0 {
		t.Error("wake-heap high-water mark not recorded")
	}
}

// TestFlowTraceOnCancel: when the execution is interrupted the lanes
// bridge must still run, closing in-flight firings as "exec (open)".
func TestFlowTraceOnCancel(t *testing.T) {
	cfg := smallMJPEGConfig(t)
	cfg.Obs = deterministicSet()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the execution step aborts immediately
	if _, err := RunContext(ctx, cfg); err == nil {
		t.Fatal("expected cancellation error")
	}
	// The trace still exports cleanly, whatever was recorded.
	var b bytes.Buffer
	if err := cfg.Obs.Trace.WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatal("trace after cancellation is not valid JSON")
	}
}

// TestSimLanesPairsEvents: an exec-start/exec-end pair becomes one
// "exec" span on the actor's lane, any other event an instant mark on its
// subject's lane, and the lanes reach the trace in (start, lane) order.
func TestSimLanesPairsEvents(t *testing.T) {
	l := &simLanes{open: make(map[string]int64)}
	l.record("exec-start", "VLD", 100)
	l.record("exec-start", "IQZZ", 120)
	l.record("exec-end", "VLD", 150)
	l.record("ser-done", "vld2iqzz", 160)
	l.record("exec-end", "IQZZ", 170)
	l.record("exec-end", "CC", 180) // no matching start: dropped
	l.addTo(nil, 200, nil)
	want := []laneSpan{
		{"VLD", "exec", 100, 150},
		{"IQZZ", "exec", 120, 170},
		{"vld2iqzz", "ser-done", 160, 160},
	}
	if !reflect.DeepEqual(l.spans, want) {
		t.Fatalf("spans = %+v\nwant %+v", l.spans, want)
	}
}

// TestSimLanesCloseOpen: a firing still in flight when the simulation
// stopped surfaces as an "exec (open)" span closed at the final time, or
// at its own start when that is later, never going backwards.
func TestSimLanesCloseOpen(t *testing.T) {
	l := &simLanes{open: make(map[string]int64)}
	l.record("exec-start", "VLD", 10)
	l.record("exec-end", "VLD", 30)
	l.record("exec-start", "IDCT", 25) // never ends: deadlocked mid-firing
	l.record("exec-start", "CC", 90)   // started after the final time
	l.addTo(nil, 60, nil)
	want := []laneSpan{
		{"VLD", "exec", 10, 30},
		{"IDCT", "exec (open)", 25, 60},
		{"CC", "exec (open)", 90, 90},
	}
	if !reflect.DeepEqual(l.spans, want) {
		t.Fatalf("spans = %+v\nwant %+v", l.spans, want)
	}
}

// Telemetry disabled must not change results: same app, same bounds.
func TestFlowTelemetryTransparent(t *testing.T) {
	plain := smallMJPEGConfig(t)
	resPlain, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	traced := smallMJPEGConfig(t)
	traced.Obs = deterministicSet()
	resTraced, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if resPlain.WorstCase != resTraced.WorstCase ||
		resPlain.Measured != resTraced.Measured ||
		resPlain.Expected != resTraced.Expected {
		t.Fatalf("telemetry changed results: %+v vs %+v", resPlain, resTraced)
	}
}
