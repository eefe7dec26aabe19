package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"time"

	"mamps/internal/arch"
	"mamps/internal/buffer"
	"mamps/internal/dse"
	"mamps/internal/flow"
	"mamps/internal/modelio"
	"mamps/internal/obs"
	"mamps/internal/obs/diag"
	"mamps/internal/service/cache"
	"mamps/internal/sim"
	"mamps/internal/statespace"
)

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.instrument("analyze", s.handleAnalyze))
	mux.HandleFunc("POST /v1/flow", s.instrument("flow", s.handleFlow))
	mux.HandleFunc("POST /v1/dse", s.instrument("dse", s.handleDSE))
	mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /v1/runs", s.instrument("runs", s.handleRunsList))
	mux.HandleFunc("GET /v1/runs/compare", s.instrument("runs_compare", s.handleRunsCompare))
	mux.HandleFunc("GET /v1/runs/{id}", s.instrument("runs_get", s.handleRunGet))
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.instrument("runs_trace", s.handleRunTrace))
	mux.HandleFunc("GET /v1/runs/{id}/proof", s.instrument("runs_proof", s.handleRunProof))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /debug/dump", s.instrument("debug_dump", s.handleDebugDump))
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusRecorder captures the response code for the request metrics, and
// whether anything was written yet — the panic recovery can only send a
// clean 500 while the response is still untouched.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(p)
}

// instrument wraps a handler with latency and status-code metrics, a
// per-request ID (returned as X-Request-ID and threaded through the
// context so job logs correlate with access lines), panic recovery (a
// handler panic becomes a logged stack plus a 500 carrying the request
// ID; the server keeps serving), and a structured access log. Health
// probes log at Debug so they don't drown the interesting traffic.
func (s *Server) instrument(endpoint string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.clk.Now()
		id := s.reqIDs.Next()
		w.Header().Set("X-Request-ID", id)
		// W3C trace-context propagation: continue an incoming trace with
		// a child span, or mint a fresh one, and answer with the value a
		// downstream hop should use. The IDs travel the request context
		// into span attributes and runlog records.
		tc, err := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if err != nil {
			tc = obs.NewTraceContext()
		} else {
			tc = tc.Child()
		}
		w.Header().Set("traceparent", tc.Header())
		ctx := obs.WithRequestID(r.Context(), id)
		ctx = obs.WithTraceContext(ctx, tc)
		r = r.WithContext(ctx)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.metrics.observePanic()
				s.log.Error("handler panic",
					"requestID", id, "endpoint", endpoint, "panic", fmt.Sprint(p),
					"stack", string(debug.Stack()))
				if !rec.wrote {
					s.writeJSON(rec, http.StatusInternalServerError, modelio.ErrorJSON{
						Error: fmt.Sprintf("internal error (request %s)", id), Kind: "panic",
					})
				}
				s.recorder.Record(diag.KindEvent, "panic/"+endpoint, fmt.Sprint(p))
				s.dumpDiagnostics(r.Context(), "panic", "")
			}
			elapsed := s.clk.Since(start)
			s.recorder.Record(diag.KindEvent, "http/"+endpoint,
				fmt.Sprintf("%s status=%d trace=%s", id, rec.code, tc.TraceID))
			s.metrics.observeRequest(endpoint, rec.code, elapsed)
			// Compute endpoints feed the latency SLO: good = answered in
			// time and not by a server-side failure. Client errors (4xx)
			// are the caller's problem, not budget burn.
			if endpoint == "analyze" || endpoint == "flow" || endpoint == "dse" {
				s.sloLatency.Observe(elapsed <= sloLatencyTarget && rec.code < 500)
			}
			level := slog.LevelInfo
			if endpoint == "healthz" || endpoint == "readyz" {
				level = slog.LevelDebug
			}
			s.log.Log(r.Context(), level, "request",
				"requestID", id, "endpoint", endpoint, "method", r.Method,
				"path", r.URL.Path, "status", rec.code, "elapsed", elapsed)
		}()
		fn(rec, r)
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = modelio.EncodeJSON(w, v)
}

// writeError maps service and compute errors to status codes: a full
// queue is 429 with Retry-After (the client should back off, not fail
// over), drain is 503 with Retry-After (this instance is going away),
// timeouts 504, a job that panicked 500, deadlocks a structured 422
// carrying the cycle and the per-engine report, other infeasible or
// invalid models a plain 422.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	code := http.StatusUnprocessableEntity
	body := modelio.ErrorJSON{Error: err.Error()}
	var de *sim.DeadlockError
	switch {
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
		body.RetryAfterSec = 1
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "5")
		body.Draining = true
		body.RetryAfterSec = 5
	case errors.As(err, &de):
		body.Kind = "deadlock"
		body.Cycle = de.Cycle
		body.Report = de.Report
		// A structured deadlock is a diagnosable event: snapshot the
		// flight recorder and profiles alongside the 422.
		s.recorder.Record(diag.KindEvent, "deadlock", de.Report)
		s.dumpDiagnostics(r.Context(), "deadlock", de.Report)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, statespace.ErrInterrupted),
		errors.Is(err, sim.ErrInterrupted):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		code = http.StatusServiceUnavailable
	case errors.Is(err, errJobPanic):
		code = http.StatusInternalServerError
	}
	s.writeJSON(w, code, body)
}

// handleHealthz is the liveness probe: 200 while the process can still
// answer (including mid-drain, status "draining"), 503 with Retry-After
// only once the workers have exited.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	code := http.StatusOK
	if st.Status == "stopped" {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "5")
	}
	s.writeJSON(w, code, st)
}

// handleReadyz is the readiness probe: it flips to 503 the moment a
// drain begins — before /healthz goes down — so load balancers stop
// routing new work here while in-flight jobs finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	code := http.StatusOK
	if st.Status != "ok" {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "5")
	}
	s.writeJSON(w, code, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.observeGCPauses(&ms)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	gauges := []gauge{
		{name: "mamps_goroutines", help: "Live goroutines in the process.", value: float64(runtime.NumGoroutine())},
		{name: "mamps_heap_bytes", help: "Bytes of allocated heap objects.", value: float64(ms.HeapAlloc)},
		{name: "mamps_workers", help: "Size of the worker pool.", value: float64(st.Workers)},
		{name: "mamps_workers_busy", help: "Workers currently executing a job.", value: float64(st.BusyWork)},
		{name: "mamps_queue_depth", help: "Jobs waiting for a worker.", value: float64(st.QueueDepth)},
		{name: "mamps_queue_capacity", help: "Bound of the job queue.", value: float64(st.QueueCap)},
		{name: "mamps_cache_entries", help: "Completed entries in the analysis cache.", value: float64(st.Cache.Entries)},
		{name: "mamps_cache_hits_total", help: "Cache lookups answered from a completed entry.", value: float64(st.Cache.Hits), counter: true},
		{name: "mamps_cache_misses_total", help: "Cache lookups that computed.", value: float64(st.Cache.Misses), counter: true},
		{name: "mamps_cache_dedup_total", help: "Lookups that joined an in-flight computation.", value: float64(st.Cache.Dedup), counter: true},
		{name: "mamps_cache_evictions_total", help: "Entries dropped by the LRU bound.", value: float64(st.Cache.Evictions), counter: true},
		{name: "mamps_cache_inflight", help: "Analyses currently being computed under single-flight.", value: float64(st.Cache.InFlight)},
		{name: "mamps_uptime_seconds", help: "Time since the server started.", value: st.UptimeSec},
		{name: "mamps_process_start_time_seconds", help: "Unix time the server process started.", value: float64(s.start.Unix())},
		{name: "mamps_build_info", help: "Build metadata; the value is always 1.",
			labels: fmt.Sprintf("version=%q,go_version=%q", buildVersion, buildGoVersion), value: 1},
	}
	if s.runlog != nil {
		// The chain root, info-style: scrape and pin it externally to make
		// whole-history rewrites of the run ledger detectable.
		gauges = append(gauges, gauge{
			name: "mamps_ledger_root", help: "Merkle root of the run ledger; the value is always 1.",
			labels: fmt.Sprintf("root=%q", s.runlog.Root()), value: 1,
		})
	}
	s.metrics.write(w, gauges)
	// The kernel counter groups (mamps_statespace_*, mamps_sim_*) live in
	// the obs registry, fed by every job's analyses and simulations.
	s.obsReg.WritePrometheus(w)
	// The SLO board: mamps_slo_target/good/bad/burn_rate/budget/burning
	// per objective.
	s.slos.WritePrometheus(w)
}

// elapsedMS measures a handler's wall time for the response envelope.
func (s *Server) elapsedMS(start time.Time) float64 {
	return float64(s.clk.Since(start).Microseconds()) / 1000
}

// ---- /v1/analyze ----

// validateWorkers rejects worker counts a request must not ask for:
// negative, or beyond 4×GOMAXPROCS (the service boundary answers an
// absurd request with a structured 400 instead of spawning a
// surprisingly large goroutine pool). Zero is "use the server default"
// and always valid.
func validateWorkers(field string, w int) error {
	limit := 4 * runtime.GOMAXPROCS(0)
	if w < 0 || w > limit {
		return fmt.Errorf("%s %d out of range (want 1..%d, or 0 for the server default)", field, w, limit)
	}
	return nil
}

// writeValidationError answers a 400 with the structured error body.
func (s *Server) writeValidationError(w http.ResponseWriter, err error) {
	s.writeJSON(w, http.StatusBadRequest, modelio.ErrorJSON{Error: err.Error(), Kind: "validation"})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	start := s.clk.Now()
	var req modelio.AnalyzeRequestJSON
	if err := modelio.DecodeJSON(r.Body, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, modelio.ErrorJSON{Error: err.Error()})
		return
	}
	h := cache.NewHasher("mamps/req/analyze/v1")
	workloadHash(h, req.AppXML, req.Workload)
	h.Float(req.TargetThroughput)

	val, hit, err := s.submit(r.Context(), h.Sum(), func(ctx context.Context) (any, error) {
		return s.analyzeJob(ctx, req)
	})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resp := val.(modelio.AnalyzeResponseJSON)
	resp.Cached = hit
	resp.ElapsedMS = s.elapsedMS(start)
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) analyzeJob(ctx context.Context, req modelio.AnalyzeRequestJSON) (any, error) {
	built, err := resolveApp(req.AppXML, req.Workload)
	if err != nil {
		return nil, err
	}
	g := built.app.Graph
	resp := modelio.AnalyzeResponseJSON{App: built.app.Name, Actors: g.NumActors(), Channels: g.NumChannels()}
	resp.RepetitionVector, err = modelio.RepetitionVectorJSON(g)
	if err != nil {
		return nil, err
	}
	// Throughput with every actor serialized (each bound to one PE), at
	// the per-channel lower-bound buffers — the baseline the CLI reports.
	for _, a := range g.Actors() {
		a.MaxConcurrent = 1
	}
	analyze := cache.Analyzer(s.cache, ctx, s.tel)
	thr, err := buffer.EvaluateWith(g, buffer.LowerBounds(g), analyze, statespace.Options{})
	if err != nil {
		return nil, err
	}
	resp.Throughput = modelio.NewThroughputJSON(thr)

	if req.TargetThroughput > 0 {
		dist, got, err := buffer.Minimize(g, req.TargetThroughput, buffer.Options{Analyze: analyze})
		if err != nil {
			return nil, err
		}
		resp.TargetThroughput = req.TargetThroughput
		resp.Achieved = modelio.NewThroughputJSON(got)
		for _, c := range g.Channels() {
			if c.IsSelfLoop() {
				continue
			}
			resp.Buffers = append(resp.Buffers, modelio.BufferJSON{
				Channel: c.Name, Tokens: dist[c.ID], Bytes: dist[c.ID] * c.TokenSize,
			})
		}
	}
	return resp, nil
}

// ---- /v1/flow ----

func (s *Server) handleFlow(w http.ResponseWriter, r *http.Request) {
	start := s.clk.Now()
	var req modelio.FlowRequestJSON
	if err := modelio.DecodeJSON(r.Body, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, modelio.ErrorJSON{Error: err.Error()})
		return
	}
	h := cache.NewHasher("mamps/req/flow/v1")
	workloadHash(h, req.AppXML, req.Workload)
	h.String(req.ArchXML).Int(int64(req.Tiles)).String(req.Interconnect).
		Int(int64(req.Iterations)).String(req.RefActor).Bool(req.UseCA)
	// The fault scenario changes the execution (and possibly triggers a
	// degraded re-mapping), so it is part of the content address. Marshal
	// keeps the key stable across spec shapes ("null" when absent).
	fb, _ := json.Marshal(req.Faults)
	h.String(string(fb)).Float(req.TargetThroughput)

	val, hit, err := s.submit(r.Context(), h.Sum(), func(ctx context.Context) (any, error) {
		return s.flowJob(ctx, req)
	})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resp := val.(modelio.FlowResponseJSON)
	resp.Cached = hit
	resp.ElapsedMS = s.elapsedMS(start)
	s.writeJSON(w, http.StatusOK, resp)
}

func parseInterconnect(name string) (arch.InterconnectKind, error) {
	switch name {
	case "", "fsl":
		return arch.FSL, nil
	case "noc":
		return arch.NoC, nil
	default:
		return 0, fmt.Errorf("unknown interconnect %q (fsl or noc)", name)
	}
}

func (s *Server) flowJob(ctx context.Context, req modelio.FlowRequestJSON) (any, error) {
	built, err := resolveApp(req.AppXML, req.Workload)
	if err != nil {
		return nil, err
	}
	cfg := flow.Config{App: built.app, Clock: s.clk, Scenario: "service"}
	cfg.MapOptions.UseCA = req.UseCA
	cfg.Faults = req.Faults
	cfg.TargetThroughput = req.TargetThroughput
	// Every job analyzes through the service cache. A recorded run gets a
	// private trace and counter groups, and its record counts its
	// analyses as a cold run would (see cache.Analyzer), so the
	// regression detector compares counts independent of cache warmth.
	cfg.Obs = s.tel
	rt := s.newRunTelemetry(ctx)
	var graphKey string
	if rt != nil {
		graphKey = cache.GraphKey(built.app.Graph)
		cfg.Obs = rt.set
	}
	cfg.MapOptions.Analyze = cache.Analyzer(s.cache, ctx, cfg.Obs)

	if req.ArchXML != "" {
		cfg.Platform, err = modelio.ReadArch([]byte(req.ArchXML))
		if err != nil {
			return nil, err
		}
	} else {
		cfg.Tiles = req.Tiles
		if cfg.Tiles == 0 {
			cfg.Tiles = built.app.Graph.NumActors()
		}
		cfg.Interconnect, err = parseInterconnect(req.Interconnect)
		if err != nil {
			return nil, err
		}
	}

	switch {
	case req.Iterations > 0:
		cfg.Iterations = req.Iterations
	case req.Iterations < 0:
		if built.fullIterations == 0 {
			return nil, fmt.Errorf("iterations -1 (full input) requires a built-in workload")
		}
		cfg.Iterations = built.fullIterations
	}
	if cfg.Iterations > 0 && !built.executable {
		return nil, fmt.Errorf("XML application models are analysis-only; use a workload to execute %d iterations", cfg.Iterations)
	}
	cfg.RefActor = req.RefActor
	if cfg.RefActor == "" {
		cfg.RefActor = built.refActor
	}

	res, err := flow.RunContext(ctx, cfg)
	if rt != nil {
		rt.fold(s)
		s.recordFlowRun(ctx, req, built.app.Name, graphKey, rt, res, err)
	}
	if err != nil {
		return nil, err
	}
	return modelio.NewFlowResponseJSON(res), nil
}

// ---- /v1/dse ----

func (s *Server) handleDSE(w http.ResponseWriter, r *http.Request) {
	start := s.clk.Now()
	var req modelio.DSERequestJSON
	if err := modelio.DecodeJSON(r.Body, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, modelio.ErrorJSON{Error: err.Error()})
		return
	}
	if err := validateWorkers("workers", req.Workers); err != nil {
		s.writeValidationError(w, err)
		return
	}
	// workers is not part of the content key: the sweep's output is
	// deterministic at every parallelism setting.
	h := cache.NewHasher("mamps/req/dse/v1")
	workloadHash(h, req.AppXML, req.Workload)
	h.Int(int64(req.MinTiles)).Int(int64(req.MaxTiles)).
		Strings(req.Interconnects).Bool(req.WithCA).
		Bool(req.Solver).Int(req.SolverNodeBudget)

	val, hit, err := s.submit(r.Context(), h.Sum(), func(ctx context.Context) (any, error) {
		return s.dseJob(ctx, req)
	})
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resp := val.(modelio.DSEResponseJSON)
	resp.Cached = hit
	resp.ElapsedMS = s.elapsedMS(start)
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) dseJob(ctx context.Context, req modelio.DSERequestJSON) (any, error) {
	built, err := resolveApp(req.AppXML, req.Workload)
	if err != nil {
		return nil, err
	}
	cfg := dse.Config{
		MinTiles:         req.MinTiles,
		MaxTiles:         req.MaxTiles,
		WithCA:           req.WithCA,
		UseSolver:        req.Solver,
		SolverNodeBudget: req.SolverNodeBudget,
		Workers:          req.Workers,
		Cache:            s.cache,
		Obs:              s.tel,
	}
	rt := s.newRunTelemetry(ctx)
	var graphKey string
	if rt != nil {
		graphKey = cache.GraphKey(built.app.Graph)
		cfg.Obs = rt.set
	}
	for _, name := range req.Interconnects {
		ic, err := parseInterconnect(name)
		if err != nil {
			return nil, err
		}
		cfg.Interconnects = append(cfg.Interconnects, ic)
	}
	points, err := dse.SweepContext(ctx, built.app, cfg)
	if rt != nil {
		rt.fold(s)
		s.recordDSERun(ctx, req, built.app.Name, graphKey, rt, points, err)
	}
	if err != nil {
		return nil, err
	}
	return modelio.NewDSEResponseJSON(built.app.Name, points), nil
}
