package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// layerMetric is one per-layer metric of the traced run. Its source is
// where the value comes from:
//   - loop: the timed phase's responses (elapsedMS, size, steps);
//   - metrics: the difference of two /metrics scrapes around the timed
//     phase, per timed request unless the unit says otherwise;
//   - alone: the probe, which calls the layer's public functions in its
//     own process on the workload's first requests plus a seeded
//     reference set of flows, analyses and sweeps;
//   - loop|alone: the loop's value where the workload runs the layer,
//     else the probe's.
type layerMetric struct {
	name, unit, source string
}

var perLayer = []layerMetric{
	{"service.server_ms", "ms", "loop"},
	{"service.transport_ms", "ms", "loop"},
	{"service.queue_wait_ms", "ms", "metrics"},
	{"service.resp_kb", "KiB", "loop"},
	{"service.unattributed_ms", "ms", "loop"},
	{"cache.hit_ratio", "ratio", "metrics"},
	{"cache.dedup", "count/req", "metrics"},
	{"cache.graph_key_us", "us", "alone"},
	{"cache.request_key_us", "us", "alone"},
	{"warm.exact", "count/req", "metrics"},
	{"warm.scaled", "count/req", "metrics"},
	{"warm.hint", "count/req", "metrics"},
	{"warm.miss", "count/req", "metrics"},
	{"warm.bailout", "count/req", "metrics"},
	{"mjpeg.build_ms", "ms", "alone"},
	{"arch.generate_ms", "ms", "loop|alone"},
	{"mapping.map_ms", "ms", "loop|alone"},
	{"mapping.self_ms", "ms", "alone"},
	{"mapping.analyses", "count", "alone"},
	{"statespace.analyze_ms", "ms", "alone"},
	{"statespace.analyses", "count/req", "metrics"},
	{"statespace.states", "count/req", "metrics"},
	{"statespace.states_per_s", "1/s", "alone"},
	{"statespace.parallel_share", "ratio", "metrics"},
	{"statespace.allocs_per_analysis", "count", "alone"},
	{"flow.expected_ms", "ms", "loop|alone"},
	{"platgen.generate_ms", "ms", "loop|alone"},
	{"sim.synth_ms", "ms", "loop|alone"},
	{"sim.execute_ms", "ms", "loop|alone"},
	{"sim.steps", "count/req", "metrics"},
	{"sim.cycles", "count", "alone"},
	{"sim.host_ns_per_cycle", "ns", "alone"},
	{"sim.allocs_per_run", "count", "alone"},
	{"buffer.minimize_ms", "ms", "alone"},
	{"buffer.analyses", "count", "alone"},
	{"dse.sweep_ms", "ms", "alone"},
	{"dse.points", "count", "loop|alone"},
	{"solver.nodes_expanded", "count/req", "metrics"},
	{"solver.nodes_pruned", "count/req", "metrics"},
	{"solver.verifications", "count/req", "metrics"},
	{"runlog.append_ms", "ms", "alone"},
	{"runlog.bytes_per_run", "bytes", "loop|alone"},
	{"runlog.blob_writes", "count/req", "metrics"},
	{"runlog.blob_dedup", "count/req", "metrics"},
	{"runlog.fsyncs", "count/req", "metrics"},
	{"obs.perfetto_ms", "ms", "alone"},
	{"obs.trace_kb", "KiB", "alone"},
	{"go.gc_cycles", "count/req", "metrics"},
	{"go.gc_pause_ms", "ms", "metrics"},
	{"go.heap_mb", "MiB", "metrics"},
}

// stepLayer maps the flow's Table 1 steps, as responses name them, to
// their layer metrics.
var stepLayer = map[string]string{
	"Generating architecture model":     "arch.generate_ms",
	"Mapping the design (SDF3)":         "mapping.map_ms",
	"Generating Xilinx project (MAMPS)": "platgen.generate_ms",
	"Synthesis of the system":           "sim.synth_ms",
	"Executing on platform":             "sim.execute_ms",
	"Expected-case analysis (SDF3)":     "flow.expected_ms",
}

const (
	// probeRequests is how many of the workload's first distinct
	// requests the probe replays.
	probeRequests = 12
	// traceRequests caps the timed requests written to the trace file,
	// which keeps it small enough to open.
	traceRequests = 2000
)

// probeOutput is what the probe prints.
type probeOutput struct {
	Samples map[string][]float64 `json:"samples"`
	Spans   []struct {
		Name    string  `json:"name"`
		Req     int     `json:"req"`
		Parent  string  `json:"parent"`
		StartUS float64 `json:"startUS"`
		DurUS   float64 `json:"durUS"`
	} `json:"spans"`
}

// layerValue is one row of the per-layer report.
type layerValue struct {
	value float64
	count int    // samples behind a median, or the base of a ratio
	base  string // what count counts
	from  string // loop, metrics or alone
}

// layers computes the per-layer metrics of a traced run into m, writes
// the trace file and prints the per-layer report.
func (b *bench) layers(m map[string]metric, samples []sample, before, after map[string]float64, seed int64) error {
	probe, err := b.runProbe(seed)
	if err != nil {
		return err
	}
	n := float64(len(samples))
	delta := func(series string) float64 { return after[series] - before[series] }
	vals := map[string]layerValue{}
	perReq := func(name string, v float64) {
		vals[name] = layerValue{v / n, len(samples), "requests", "metrics"}
	}

	// In the loop: per-response times and sizes.
	var server, transport, size, unattributed []float64
	steps := map[string][]float64{}
	var points []float64
	for _, s := range samples {
		if s.resp == nil {
			continue // failed, and counted as such
		}
		server = append(server, s.resp.ElapsedMS)
		transport = append(transport, float64(s.lat)/1e6-s.resp.ElapsedMS)
		size = append(size, float64(s.bytes)/1024)
		stepped := 0.0
		if !s.resp.Cached {
			for _, st := range s.resp.Steps {
				if name, ok := stepLayer[st.Name]; ok {
					steps[name] = append(steps[name], st.Micros/1e3)
				}
				stepped += st.Micros / 1e3
			}
			if s.resp.Points != nil {
				points = append(points, float64(len(s.resp.Points)))
			}
		}
		unattributed = append(unattributed, s.resp.ElapsedMS-stepped)
	}
	loop := func(name string, v []float64) {
		vals[name] = layerValue{median(v), len(v), "responses", "loop"}
	}
	loop("service.server_ms", server)
	loop("service.transport_ms", transport)
	loop("service.resp_kb", size)
	loop("service.unattributed_ms", unattributed)
	for _, name := range stepLayer {
		if len(steps[name]) > 0 {
			loop(name, steps[name])
		}
	}
	if len(points) > 0 {
		loop("dse.points", points)
	}
	if b.runlogDir != "" {
		records := float64(len(b.w.warmup) + len(samples))
		size, err := dirSize(b.runlogDir)
		if err != nil {
			return err
		}
		vals["runlog.bytes_per_run"] = layerValue{float64(size) / records, int(records), "records", "loop"}
	}

	// From /metrics.
	if jobs := delta("mamps_job_queue_wait_seconds_count"); jobs > 0 {
		vals["service.queue_wait_ms"] = layerValue{1e3 * delta("mamps_job_queue_wait_seconds_sum") / jobs, int(jobs), "jobs", "metrics"}
	} else {
		vals["service.queue_wait_ms"] = layerValue{0, 0, "jobs", "metrics"}
	}
	hits, misses := delta("mamps_cache_hits_total"), delta("mamps_cache_misses_total")
	vals["cache.hit_ratio"] = layerValue{ratio(hits, hits+misses), int(hits + misses), "lookups", "metrics"}
	perReq("cache.dedup", delta("mamps_cache_dedup_total"))
	for name, series := range map[string]string{
		"warm.exact": "exact_hits", "warm.scaled": "scaled_hits", "warm.hint": "hint_hits",
		"warm.miss": "misses", "warm.bailout": "bailouts",
	} {
		perReq(name, delta("mamps_warmstart_"+series+"_total"))
	}
	analyses := delta("mamps_statespace_analyses_total")
	perReq("statespace.analyses", analyses)
	perReq("statespace.states", delta("mamps_statespace_states_total"))
	vals["statespace.parallel_share"] = layerValue{ratio(delta("mamps_statespace_parallel_analyses_total"), analyses), int(analyses), "analyses", "metrics"}
	perReq("sim.steps", delta("mamps_sim_steps_total"))
	perReq("solver.nodes_expanded", delta("mamps_solver_nodes_expanded_total"))
	perReq("solver.nodes_pruned", delta("mamps_solver_nodes_pruned_total"))
	perReq("solver.verifications", delta("mamps_solver_verifications_total"))
	perReq("runlog.blob_writes", delta("mamps_blob_writes_total"))
	perReq("runlog.blob_dedup", delta("mamps_blob_dedup_total"))
	perReq("runlog.fsyncs", delta("mamps_blob_writes_total")+delta("mamps_ledger_appends_total"))
	perReq("go.gc_cycles", delta("mamps_gc_pause_seconds_count"))
	perReq("go.gc_pause_ms", 1e3*delta("mamps_gc_pause_seconds_sum"))
	vals["go.heap_mb"] = layerValue{after["mamps_heap_bytes"] / (1 << 20), 1, "scrape", "metrics"}

	// Alone, in the probe: everything the loop did not give.
	for _, l := range perLayer {
		if _, ok := vals[l.name]; ok {
			continue
		}
		v := probe.Samples[l.name]
		if !strings.HasSuffix(l.source, "alone") || len(v) == 0 {
			return fmt.Errorf("no measurement of %s (source %s)", l.name, l.source)
		}
		vals[l.name] = layerValue{median(v), len(v), "calls", "alone"}
	}
	for _, l := range perLayer {
		m[l.name] = metric{vals[l.name].value, l.unit}
	}

	base := filepath.Join(b.bin, "traces", fmt.Sprintf("%s-seed%d", b.w.name, seed))
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	if err := writeTrace(base+".json", samples, probe); err != nil {
		return err
	}
	report := layerReport(b.w.name, vals, server, unattributed, base+".json")
	fmt.Print(report)
	return os.WriteFile(base+".txt", []byte(report), 0o644)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runProbe replays the workload's first distinct requests, plus a seeded
// reference set that covers every layer, in the probe.
func (b *bench) runProbe(seed int64) (*probeOutput, error) {
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	seen := map[string]bool{}
	for i := 0; len(seen) < probeRequests && i < 4*probeRequests; i++ {
		r := b.w.seq.at(i)
		if !seen[r.Path+string(r.Body)] {
			seen[r.Path+string(r.Body)] = true
			if err := enc.Encode(r); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range referenceRequests(seed) {
		if err := enc.Encode(r); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(b.bin, "probe"), "-runlog", filepath.Join(b.work, "probe-runlog"))
	cmd.Stdin, cmd.Stderr = &in, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("probe: %v", err)
	}
	var p probeOutput
	return &p, json.Unmarshal(out, &p)
}

// referenceRequests are two flows, two analyses and two sweeps drawn
// from the seed, so the probe measures every layer on every workload.
func referenceRequests(seed int64) []request {
	fg := &flowGen{rng: newRand(seed, "reference/flow"), seen: map[string]bool{}}
	ag := &analysisGen{rng: newRand(seed, "reference/analysis"), seen: map[string]bool{}}
	out := []request{fg.draw(), fg.draw()}
	count := map[string]int{}
	for count["/v1/analyze"] < 2 || count["/v1/dse"] < 2 {
		r := ag.draw()
		if count[r.Path] < 2 {
			count[r.Path]++
			out = append(out, r)
		}
	}
	return out
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes the run's spans as a Chrome trace-event file, which
// Perfetto opens. Process 1 is the closed loop, one thread per
// connection: each request's client span holds the server's span
// (elapsedMS, centred, since the client cannot see when the server
// started) and, for computed flows, the Table 1 steps in order.
// Process 2 is the probe.
func writeTrace(path string, samples []sample, probe *probeOutput) error {
	ev := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "closed loop (client view)"}},
		{Name: "process_name", Ph: "M", Pid: 2, Args: map[string]any{"name": "probe (layers alone)"}},
	}
	for _, s := range samples[:min(len(samples), traceRequests)] {
		if s.resp == nil {
			continue
		}
		id := fmt.Sprintf("r%d", s.idx)
		ts := float64(s.start.Nanoseconds()) / 1e3
		lat := float64(s.lat.Nanoseconds()) / 1e3
		srvDur := s.resp.ElapsedMS * 1e3
		srvTs := ts + (lat-srvDur)/2
		ev = append(ev,
			traceEvent{Name: "request", Ph: "X", Ts: ts, Dur: lat, Pid: 1, Tid: s.client + 1,
				Args: map[string]any{"request": id, "parent": ""}},
			traceEvent{Name: "service.server", Ph: "X", Ts: srvTs, Dur: srvDur, Pid: 1, Tid: s.client + 1,
				Args: map[string]any{"request": id, "parent": "request", "cached": s.resp.Cached}})
		if s.resp.Cached {
			continue
		}
		at := srvTs
		for _, st := range s.resp.Steps {
			name := strings.TrimSuffix(stepLayer[st.Name], "_ms")
			ev = append(ev, traceEvent{Name: name, Ph: "X", Ts: at, Dur: st.Micros, Pid: 1, Tid: s.client + 1,
				Args: map[string]any{"request": id, "parent": "service.server", "step": st.Name}})
			at += st.Micros
		}
	}
	for _, sp := range probe.Spans {
		ev = append(ev, traceEvent{Name: sp.Name, Ph: "X", Ts: sp.StartUS, Dur: sp.DurUS, Pid: 2, Tid: 1,
			Args: map[string]any{"request": fmt.Sprintf("p%d", sp.Req), "parent": sp.Parent}})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": ev, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// layerReport renders the per-layer table: each value with the count
// behind it (samples of a median, or the base of a ratio or per-request
// figure), and the server time no layer step accounts for.
func layerReport(workload string, vals map[string]layerValue, server, unattributed []float64, tracePath string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "per-layer report: %s (medians unless the unit is per request; trace %s)\n", workload, tracePath)
	fmt.Fprintf(&sb, "%-32s %14s %-10s %10s %-10s %s\n", "metric", "value", "unit", "count", "of", "source")
	for _, l := range perLayer {
		v := vals[l.name]
		fmt.Fprintf(&sb, "%-32s %14.4f %-10s %10d %-10s %s\n", l.name, v.value, l.unit, v.count, v.base, v.from)
	}
	srv, un := median(server), median(unattributed)
	fmt.Fprintf(&sb, "unattributed server time: %.4f ms of a %.4f ms median server time (%.1f%%) is outside every Table 1 step", un, srv, 100*ratio(un, srv))
	fmt.Fprintf(&sb, " (decode, keying, cache lookup, queue wait, JSON encoding; and all of an analyze or dse request, which reports no steps)\n")
	return sb.String()
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return err
	})
	return n, err
}
