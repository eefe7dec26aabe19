// Command probe measures single layers of the mapping flow alone, in its
// own process, for the benchmark's traced run. It reads requests as JSON
// lines ({"path": ..., "body": ...}) on standard input, calls each
// layer's public functions on them, configured as mamps-serve configures
// them, and prints one JSON object: per-layer samples and the spans of
// every call, keyed by request.
//
//	probe -runlog DIR < requests.jsonl
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/buffer"
	"mamps/internal/dse"
	"mamps/internal/flow"
	"mamps/internal/mjpeg"
	"mamps/internal/modelio"
	"mamps/internal/obs"
	"mamps/internal/runlog"
	"mamps/internal/sdf"
	"mamps/internal/service/cache"
	"mamps/internal/sim"
	"mamps/internal/statespace"
)

type input struct {
	Path string          `json:"path"`
	Body json.RawMessage `json:"body"`
}

// span is one timed call; Parent names the enclosing call, empty for a
// request's top-level calls.
type span struct {
	Name    string  `json:"name"`
	Req     int     `json:"req"`
	Parent  string  `json:"parent"`
	StartUS float64 `json:"startUS"`
	DurUS   float64 `json:"durUS"`
}

type output struct {
	// Samples maps a per-layer metric name to one value per call.
	Samples map[string][]float64 `json:"samples"`
	Spans   []span               `json:"spans"`
}

type probe struct {
	out   output
	epoch time.Time
	req   int
	cache *cache.Cache
	reg   *runlog.Registry
}

func main() {
	dir := flag.String("runlog", "", "scratch run registry directory")
	flag.Parse()
	if err := run(*dir); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}

func run(dir string) error {
	reg, err := runlog.Open(dir, runlog.Options{MaxRecords: 10000})
	if err != nil {
		return err
	}
	p := &probe{
		out:   output{Samples: map[string][]float64{}},
		epoch: time.Now(),
		cache: cache.New(4096),
		reg:   reg,
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for ; sc.Scan(); p.req++ {
		var in input
		if err := json.Unmarshal(sc.Bytes(), &in); err != nil {
			return err
		}
		switch in.Path {
		case "/v1/flow":
			err = p.flow(in.Body)
		case "/v1/analyze":
			err = p.analyze(in.Body)
		case "/v1/dse":
			err = p.dse(in.Body)
		default:
			err = fmt.Errorf("unknown path %q", in.Path)
		}
		if err != nil {
			return fmt.Errorf("request %d (%s): %w", p.req, in.Path, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := reg.Close(); err != nil {
		return err
	}
	if n := len(p.out.Samples["runlog.append_ms"]); n > 0 {
		size, err := dirSize(dir)
		if err != nil {
			return err
		}
		p.add("runlog.bytes_per_run", float64(size)/float64(n))
	}
	return json.NewEncoder(os.Stdout).Encode(p.out)
}

func (p *probe) add(name string, v float64) { p.out.Samples[name] = append(p.out.Samples[name], v) }

// timed runs f as a span of the current request and returns its wall
// time in milliseconds.
func (p *probe) timed(name, parent string, f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	p.out.Spans = append(p.out.Spans, span{
		Name: name, Req: p.req, Parent: parent,
		StartUS: float64(t0.Sub(p.epoch).Nanoseconds()) / 1e3, DurUS: float64(d.Nanoseconds()) / 1e3,
	})
	return float64(d.Nanoseconds()) / 1e6, err
}

// mallocs counts the heap allocations f makes. The probe runs one call
// at a time, so other goroutines add only runtime noise.
func mallocs(f func() error) (uint64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, err
}

// analysis is one state-space analysis a layer asked for.
type analysis struct {
	g   *sdf.Graph
	opt statespace.Options
	at  time.Time
	ms  float64
}

// analyzer times the analyses of one layer call into log, publishing
// the explorer counters as the service's analyzer does.
func (p *probe) analyzer(parent string, tel *obs.ExplorerStats, log *[]analysis) func(*sdf.Graph, statespace.Options) (statespace.Result, error) {
	return func(g *sdf.Graph, opt statespace.Options) (statespace.Result, error) {
		opt.Telemetry = tel
		var r statespace.Result
		at := time.Now()
		ms, err := p.timed("statespace.analyze", parent, func() error {
			var err error
			r, err = statespace.Analyze(g, opt)
			return err
		})
		*log = append(*log, analysis{g: g, opt: opt, at: at, ms: ms})
		p.add("statespace.analyze_ms", ms)
		if ms > 0 {
			p.add("statespace.states_per_s", float64(r.StatesExplored)/(ms/1e3))
		}
		return r, err
	}
}

// allocsPerAnalysis re-runs the first analysis of a call alone.
func (p *probe) allocsPerAnalysis(log []analysis) error {
	if len(log) == 0 {
		return nil
	}
	n, err := mallocs(func() error {
		opt := log[0].opt
		opt.Telemetry = nil
		_, err := statespace.Analyze(log[0].g, opt)
		return err
	})
	p.add("statespace.allocs_per_analysis", float64(n))
	return err
}

func sequenceKind(name string) (mjpeg.SequenceKind, error) {
	for _, k := range append([]mjpeg.SequenceKind{mjpeg.SeqSynthetic}, mjpeg.TestSet()...) {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown sequence %q", name)
}

// flow runs an executing /v1/flow request the way a recorded service run
// does: private telemetry, a trace exported as Perfetto JSON, and a
// record with the trace appended to a run registry.
func (p *probe) flow(body []byte) error {
	var req modelio.FlowRequestJSON
	if err := modelio.DecodeJSON(bytes.NewReader(body), &req); err != nil {
		return err
	}
	root := fmt.Sprintf("req%d", p.req)
	wl := req.Workload
	if wl == nil {
		return fmt.Errorf("flow request without a workload")
	}
	var app *appmodel.App
	var iterations int
	ms, err := p.timed("mjpeg.build", root, func() error {
		kind, err := sequenceKind(wl.Sequence)
		if err != nil {
			return err
		}
		stream, _, err := mjpeg.EncodeSequence(kind, wl.Width, wl.Height, wl.Frames, wl.Quality, mjpeg.Sampling420)
		if err != nil {
			return err
		}
		var actors *mjpeg.Actors
		app, actors, err = mjpeg.BuildApp(stream)
		if err != nil {
			return err
		}
		si := actors.VLD.Info()
		iterations = si.MCUsPerFrame() * si.Frames
		return nil
	})
	if err != nil {
		return err
	}
	p.add("mjpeg.build_ms", ms)
	p.keys(app.Graph, func(h *cache.Hasher) {
		// The handler's content key: workload spec, then the flow fields.
		h.String("workload").String(wl.Name).Int(int64(wl.Width)).Int(int64(wl.Height)).
			Int(int64(wl.Frames)).Int(int64(wl.Quality)).String(wl.Sequence)
		h.String(req.ArchXML).Int(int64(req.Tiles)).String(req.Interconnect).
			Int(int64(req.Iterations)).String(req.RefActor).Bool(req.UseCA)
		fb, _ := json.Marshal(req.Faults)
		h.String(string(fb)).Float(req.TargetThroughput)
	})

	tr := obs.New()
	set := &obs.Set{Trace: tr, Explorer: obs.NewExplorerStats(nil), Sim: obs.NewSimStats(nil), Solver: obs.NewSolverStats(nil)}
	var log []analysis
	cfg := flow.Config{
		App: app, Tiles: req.Tiles, Interconnect: interconnect(req.Interconnect), Scenario: "service",
		Iterations: iterations, RefActor: "Raster", Obs: set,
	}
	cfg.MapOptions.Analyze = p.analyzer("flow", set.Explorer, &log)
	var res *flow.Result
	start := time.Now()
	if _, err := p.timed("flow", root, func() error {
		var err error
		res, err = flow.RunContext(context.Background(), cfg)
		return err
	}); err != nil {
		return err
	}
	// Analyses that start before platform generation ends belong to the
	// mapping step; the next step that analyzes is the expected case,
	// after execution.
	var mapMS float64
	mapEnd := start
	for _, st := range res.Steps {
		ms := float64(st.Elapsed.Nanoseconds()) / 1e6
		switch st.Name {
		case "Generating architecture model":
			mapEnd = mapEnd.Add(st.Elapsed)
			p.add("arch.generate_ms", ms)
		case "Mapping the design (SDF3)":
			mapEnd = mapEnd.Add(st.Elapsed)
			mapMS = ms
			p.add("mapping.map_ms", ms)
		case "Generating Xilinx project (MAMPS)":
			mapEnd = mapEnd.Add(st.Elapsed)
			p.add("platgen.generate_ms", ms)
		case "Synthesis of the system":
			p.add("sim.synth_ms", ms)
		case "Executing on platform":
			p.add("sim.execute_ms", ms)
			if res.Sim != nil && res.Sim.Cycles > 0 {
				p.add("sim.cycles", float64(res.Sim.Cycles))
				p.add("sim.host_ns_per_cycle", ms*1e6/float64(res.Sim.Cycles))
			}
		case "Expected-case analysis (SDF3)":
			p.add("flow.expected_ms", ms)
		}
	}
	var inMap int
	var inMapMS float64
	for _, a := range log {
		if a.at.Before(mapEnd) {
			inMap++
			inMapMS += a.ms
		}
	}
	p.add("mapping.analyses", float64(inMap))
	p.add("mapping.self_ms", max(0, mapMS-inMapMS))
	if err := p.allocsPerAnalysis(log); err != nil {
		return err
	}
	simAllocs, err := mallocs(func() error {
		_, err := sim.Run(res.Mapping, sim.Options{Iterations: iterations, RefActor: "Raster", Scenario: "service"})
		return err
	})
	if err != nil {
		return err
	}
	p.add("sim.allocs_per_run", float64(simAllocs))

	var trace bytes.Buffer
	ms, err = p.timed("obs.perfetto", root, func() error { return tr.WritePerfetto(&trace) })
	if err != nil {
		return err
	}
	p.add("obs.perfetto_ms", ms)
	p.add("obs.trace_kb", float64(trace.Len())/1024)

	rec := runlog.Record{
		Kind: "flow", App: app.Name, GraphKey: cache.GraphKey(app.Graph), Outcome: "ok",
		Bound: res.WorstCase, Measured: res.Measured, Expected: res.Expected,
		Counters: runlog.CountersFrom(set),
	}
	if res.Sim != nil {
		rec.Cycles = res.Sim.Cycles
	}
	for _, st := range res.Steps {
		rec.Steps = append(rec.Steps, runlog.StageTime{Name: st.Name, Automated: st.Automated, Micros: float64(st.Elapsed.Microseconds())})
	}
	ms, err = p.timed("runlog.append", root, func() error {
		_, err := p.reg.Append(rec, runlog.Artifact{Name: "trace.json", Data: trace.Bytes()})
		return err
	})
	p.add("runlog.append_ms", ms)
	return err
}

func interconnect(name string) arch.InterconnectKind {
	if name == "noc" {
		return arch.NoC
	}
	return arch.FSL
}

// keys times the two content keys a request is looked up under: the
// canonical graph key and the handler's request key.
func (p *probe) keys(g *sdf.Graph, request func(*cache.Hasher)) {
	const reps = 20 // one key takes microseconds; average a few
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		cache.GraphKey(g)
	}
	p.add("cache.graph_key_us", float64(time.Since(t0).Nanoseconds())/1e3/reps)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		h := cache.NewHasher("mamps/req/v1")
		request(h)
		h.Sum()
	}
	p.add("cache.request_key_us", float64(time.Since(t0).Nanoseconds())/1e3/reps)
}

// readXML is the service's build of an inline model.
func (p *probe) readXML(root, appXML string) (*appmodel.App, error) {
	var app *appmodel.App
	ms, err := p.timed("mjpeg.build", root, func() error {
		var err error
		app, err = modelio.ReadApp([]byte(appXML))
		return err
	})
	p.add("mjpeg.build_ms", ms)
	return app, err
}

// analyze replays /v1/analyze: the serialized baseline throughput, then
// buffer sizing for the target.
func (p *probe) analyze(body []byte) error {
	var req modelio.AnalyzeRequestJSON
	if err := modelio.DecodeJSON(bytes.NewReader(body), &req); err != nil {
		return err
	}
	root := fmt.Sprintf("req%d", p.req)
	app, err := p.readXML(root, req.AppXML)
	if err != nil {
		return err
	}
	g := app.Graph
	p.keys(g, func(h *cache.Hasher) { h.String("appxml").String(req.AppXML).Float(req.TargetThroughput) })
	for _, a := range g.Actors() {
		a.MaxConcurrent = 1
	}
	var log []analysis
	tel := obs.NewExplorerStats(nil)
	if _, err := buffer.EvaluateWith(g, buffer.LowerBounds(g), p.analyzer(root, tel, &log), statespace.Options{}); err != nil {
		return err
	}
	base := len(log)
	ms, err := p.timed("buffer.minimize", root, func() error {
		_, _, err := buffer.Minimize(g, req.TargetThroughput, buffer.Options{Analyze: p.analyzer("buffer.minimize", tel, &log)})
		return err
	})
	if err != nil {
		return err
	}
	p.add("buffer.minimize_ms", ms)
	p.add("buffer.analyses", float64(len(log)-base))
	return p.allocsPerAnalysis(log)
}

// dse replays /v1/dse against a process-wide analysis cache, as the
// service shares one across requests.
func (p *probe) dse(body []byte) error {
	var req modelio.DSERequestJSON
	if err := modelio.DecodeJSON(bytes.NewReader(body), &req); err != nil {
		return err
	}
	root := fmt.Sprintf("req%d", p.req)
	app, err := p.readXML(root, req.AppXML)
	if err != nil {
		return err
	}
	p.keys(app.Graph, func(h *cache.Hasher) {
		h.String("appxml").String(req.AppXML).Int(int64(req.MinTiles)).Int(int64(req.MaxTiles)).
			Strings(req.Interconnects).Bool(req.WithCA).Bool(req.Solver).Int(req.SolverNodeBudget)
	})
	cfg := dse.Config{
		MinTiles: req.MinTiles, MaxTiles: req.MaxTiles, UseSolver: req.Solver,
		Cache: p.cache, Obs: &obs.Set{Explorer: obs.NewExplorerStats(nil), Solver: obs.NewSolverStats(nil)},
	}
	for _, name := range req.Interconnects {
		cfg.Interconnects = append(cfg.Interconnects, interconnect(name))
	}
	var points []dse.Point
	ms, err := p.timed("dse.sweep", root, func() error {
		var err error
		points, err = dse.SweepContext(context.Background(), app, cfg)
		return err
	})
	if err != nil {
		return err
	}
	p.add("dse.sweep_ms", ms)
	p.add("dse.points", float64(len(points)))
	return nil
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
