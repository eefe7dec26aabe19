package service

// Run-registry surface of the service: when the server is started with a
// run registry (Config.RunLog), every computed flow and DSE job is
// recorded as a persistent runlog.Record — with its own deterministic
// kernel-counter snapshot and a Perfetto trace artifact — and the
// history becomes queryable over HTTP:
//
//	GET /v1/runs                  list, with filtering and paging
//	GET /v1/runs/{id}             one record
//	GET /v1/runs/{id}/trace       the run's Perfetto trace artifact
//	GET /v1/runs/compare?a=&b=    structured diff of two runs
//
// The list and GET /v1/stats select runs with the one runlog.Filter,
// set from the query string by the one strict parser, parseQuery.
//
// Cache hits replay a stored computation and do not append new runs, so
// the registry records work actually performed.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"

	"mamps/internal/dse"
	"mamps/internal/flow"
	"mamps/internal/modelio"
	"mamps/internal/obs"
	"mamps/internal/runlog"
	"mamps/internal/sdf"
	"mamps/internal/service/cache"
	"mamps/internal/sim"
)

// buildVersion and buildGoVersion label the mamps_build_info gauge. The
// VCS revision, when the binary was built from a checkout, is more
// useful than the module version ("(devel)" for every dev build).
var buildVersion, buildGoVersion = func() (string, string) {
	gov := runtime.Version()
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown", gov
	}
	v := bi.Main.Version
	if v == "" {
		v = "unknown"
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && len(s.Value) >= 12 {
			v = s.Value[:12]
		}
	}
	return v, gov
}()

// runTelemetry is the private telemetry bundle of one recorded run: a
// fresh trace, unregistered simulator and solver groups, and the record's
// explorer counters, so the stored Record carries exactly this run's
// counts. Analyses it actually runs and its memo lookups count in the
// process-wide groups directly; fold adds the rest afterwards. nil when
// the run registry is disabled.
type runTelemetry struct {
	trace *obs.Trace
	set   *obs.Set
}

func (s *Server) newRunTelemetry(ctx context.Context) *runTelemetry {
	if s.runlog == nil {
		return nil
	}
	// The request's W3C trace ID rides on the run's trace, so the
	// Perfetto export can be stitched back to the distributed trace.
	tr := obs.New(obs.WithTraceID(obs.TraceContextFrom(ctx).TraceID))
	return &runTelemetry{
		trace: tr,
		set: &obs.Set{
			Trace:    tr,
			Explorer: s.tel.Explorer,
			Sim:      obs.NewSimStats(nil),
			Solver:   obs.NewSolverStats(nil),
			Warm:     s.tel.Warm,
			Record:   obs.NewExplorerStats(nil),
		},
	}
}

// fold adds the run's simulator and solver counters into the
// process-wide registered groups.
func (rt *runTelemetry) fold(s *Server) {
	rt.set.Sim.AddTo(s.tel.Sim)
	rt.set.Solver.AddTo(s.tel.Solver)
}

// counters snapshots the run's record counters; the warm-start stats are
// process-wide and stay out of the record.
func (rt *runTelemetry) counters() runlog.Counters {
	return runlog.CountersFrom(&obs.Set{Explorer: rt.set.Record, Sim: rt.set.Sim, Solver: rt.set.Solver})
}

// traceArtifact exports the run's trace as a Perfetto artifact, or nil
// when nothing was recorded.
func (rt *runTelemetry) traceArtifact() *runlog.Artifact {
	if rt.trace.SpanCount() == 0 {
		return nil
	}
	data, err := rt.trace.AppendPerfetto(nil)
	if err != nil {
		return nil
	}
	return &runlog.Artifact{Name: "trace.json", Data: data}
}

// flowBaselineKey keys a service flow run for baseline matching: the
// canonical graph key plus a fingerprint of the configuration knobs that
// change the numbers (two requests over the same model with different
// iteration counts must not be compared against each other).
func flowBaselineKey(graphKey string, req modelio.FlowRequestJSON) string {
	h := cache.NewHasher("mamps/runlog/flowcfg/v1")
	h.String(req.ArchXML).Int(int64(req.Tiles)).String(req.Interconnect).
		Int(int64(req.Iterations)).String(req.RefActor).Bool(req.UseCA)
	fb, _ := json.Marshal(req.Faults)
	h.String(string(fb)).Float(req.TargetThroughput)
	return "graph/" + graphKey + "/cfg/" + h.Sum()[:12]
}

// recordFlowRun appends one computed flow run (successful or not) to the
// run registry. Recording failures are logged, never surfaced to the
// client — the registry is observability, not the serving path.
func (s *Server) recordFlowRun(ctx context.Context, req modelio.FlowRequestJSON, app, graphKey string,
	rt *runTelemetry, res *flow.Result, runErr error) {
	rec := runlog.Record{
		Kind:        "flow",
		App:         app,
		GraphKey:    graphKey,
		BaselineKey: flowBaselineKey(graphKey, req),
		Config: runlog.ConfigSummary{
			Tiles: req.Tiles, Interconnect: req.Interconnect,
			Iterations: req.Iterations, RefActor: req.RefActor,
			UseCA: req.UseCA, Faults: req.Faults,
			TargetThroughput: req.TargetThroughput,
		},
		Counters: rt.counters(),
	}
	var artifacts []runlog.Artifact
	switch {
	case runErr == nil:
		rec.Outcome = "ok"
		rec.Bound = res.WorstCase
		rec.Measured = res.Measured
		rec.Expected = res.Expected
		if res.Sim != nil {
			rec.Cycles = res.Sim.Cycles
		}
		rec.Steps = make([]runlog.StageTime, 0, len(res.Steps))
		for _, st := range res.Steps {
			rec.Steps = append(rec.Steps, runlog.StageTime{
				Name: st.Name, Automated: st.Automated,
				Micros: float64(st.Elapsed.Microseconds()),
			})
		}
		if d := res.Degraded; d != nil {
			rec.Outcome = "degraded"
			rec.Degraded = &runlog.DegradedSummary{
				FailedTile: d.FailedTile, FailCycle: d.FailCycle,
				Bound: d.WorstCase.Float(), Measured: d.Measured.Float(),
				ConstraintMet:  d.ConstraintMet,
				MigratedActors: len(d.MigratedActors),
				MigrationBytes: d.MigrationBytes,
			}
		}
	default:
		rec.Outcome = "error"
		rec.Error = runErr.Error()
		var de *sim.DeadlockError
		if errors.As(runErr, &de) {
			rec.Outcome = "deadlock"
			artifacts = append(artifacts, runlog.Artifact{
				Name: "deadlock.txt", Data: []byte(de.Report),
			})
		}
	}
	if a := rt.traceArtifact(); a != nil {
		artifacts = append(artifacts, *a)
	}
	if _, ok := s.appendRun(ctx, rec, artifacts); ok && req.TargetThroughput > 0 {
		// A recorded flow carrying a throughput constraint also feeds the
		// throughput_met objective, with its exact bound.
		var bound sdf.Rate
		if runErr == nil {
			bound = res.Mapping.Analysis.Throughput
		}
		s.sloThroughput.Observe(bound.Meets(req.TargetThroughput))
	}
}

// recordDSERun appends one computed DSE sweep to the run registry.
func (s *Server) recordDSERun(ctx context.Context, req modelio.DSERequestJSON, app, graphKey string,
	rt *runTelemetry, points []dse.Point, runErr error) {
	h := cache.NewHasher("mamps/runlog/dsecfg/v1")
	h.Int(int64(req.MinTiles)).Int(int64(req.MaxTiles)).
		Strings(req.Interconnects).Bool(req.WithCA).
		Bool(req.Solver).Int(req.SolverNodeBudget)
	rec := runlog.Record{
		Kind:        "dse",
		App:         app,
		GraphKey:    graphKey,
		BaselineKey: "graph/" + graphKey + "/dse/" + h.Sum()[:12],
		Config: runlog.ConfigSummary{
			Tiles:        req.MaxTiles,
			Interconnect: strings.Join(req.Interconnects, ","),
			UseCA:        req.WithCA,
		},
		Counters: rt.counters(),
	}
	var artifacts []runlog.Artifact
	if runErr != nil {
		rec.Outcome = "error"
		rec.Error = runErr.Error()
	} else {
		rec.Outcome = "ok"
		// Bound records the sweep's best guaranteed throughput — the number
		// the regression gate watches for a DSE run — and EnergyPJ that
		// point's energy estimate.
		var best sdf.Rate
		for _, p := range points {
			if p.Err == nil && p.Throughput.Cmp(best) > 0 {
				best = p.Throughput
				rec.EnergyPJ = p.Energy.TotalPJ
				rec.AvgWatts = p.Energy.AvgWatts
			}
		}
		rec.Bound = best.Float()
	}
	if a := rt.traceArtifact(); a != nil {
		artifacts = append(artifacts, *a)
	}
	s.appendRun(ctx, rec, artifacts)
}

func (s *Server) appendRun(ctx context.Context, rec runlog.Record, artifacts []runlog.Artifact) (runlog.Record, bool) {
	if tc := obs.TraceContextFrom(ctx); tc.Valid() {
		rec.TraceID, rec.SpanID = tc.TraceID, tc.SpanID
	}
	stored, err := s.runlog.Append(rec, artifacts...)
	if err != nil {
		s.log.Error("runlog append failed", "kind", rec.Kind, "app", rec.App, "err", err)
		return runlog.Record{}, false
	}
	regressed := stored.Regression != nil && stored.Regression.Regressed
	if regressed {
		s.log.Warn("run regressed against baseline",
			"run", stored.ID, "baseline", stored.Regression.BaselineID,
			"baselineKey", stored.Regression.BaselineKey,
			"reasons", strings.Join(stored.Regression.Reasons, "; "))
	}
	// Every recorded run is a regression-free SLO event.
	s.sloRegression.Observe(!regressed)
	return stored, true
}

// ---- /v1/runs ----

// runlogOr404 guards the run endpoints when no registry is configured.
func (s *Server) runlogOr404(w http.ResponseWriter) bool {
	if s.runlog != nil {
		return true
	}
	s.writeJSON(w, http.StatusNotFound, modelio.ErrorJSON{
		Error: "run registry not enabled (start the server with -runlog <dir>)",
	})
	return false
}

func (s *Server) handleRunsList(w http.ResponseWriter, r *http.Request) {
	if !s.runlogOr404(w) {
		return
	}
	var f runlog.Filter
	offset, limit := 0, 50
	fs := f.Flags()
	fs.Var((*count)(&offset), "offset", "matches to skip, newest first")
	fs.Var((*count)(&limit), "limit", "page size (0 = all)")
	if !s.parseQuery(w, r, fs) {
		return
	}
	recs, total := s.runlog.List(f, offset, limit)
	s.writeJSON(w, http.StatusOK, modelio.RunListJSON{Total: total, Count: len(recs), Runs: recs})
}

// parseQuery sets the flags of fs — a runlog.Filter's flag set plus the
// endpoint's own parameters — from the request's query string, the one
// parser of /v1/runs and /v1/stats. An empty value leaves its flag
// unset, and a repeated parameter counts once, with its first value. A
// parameter fs does not define (a misspelt filter would otherwise
// silently match every run) or a value its flag rejects is answered
// with a 400 naming it, the first in sorted order when several are bad;
// parseQuery then reports false.
func (s *Server) parseQuery(w http.ResponseWriter, r *http.Request, fs *flag.FlagSet) bool {
	qp := r.URL.Query()
	names := make([]string, 0, len(qp))
	for name := range qp {
		names = append(names, name)
	}
	slices.Sort(names)
	var err error
	for _, name := range names {
		v := qp.Get(name)
		if fs.Lookup(name) == nil {
			var known []string
			fs.VisitAll(func(fl *flag.Flag) { known = append(known, fl.Name) })
			err = fmt.Errorf("unknown query parameter %q (want one of %s)", name, strings.Join(known, ", "))
		} else if v != "" {
			if e := fs.Set(name, v); e != nil {
				err = fmt.Errorf("bad %s %q: %v", name, v, e)
			}
		}
		if err != nil {
			s.writeJSON(w, http.StatusBadRequest, modelio.ErrorJSON{Error: err.Error(), Kind: "validation"})
			return false
		}
	}
	return true
}

// count is the flag.Value of a non-negative integer parameter.
type count int

func (c *count) Set(v string) error {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return errors.New("want a non-negative integer")
	}
	*c = count(n)
	return nil
}

func (c *count) String() string {
	if c == nil {
		return "0"
	}
	return strconv.Itoa(int(*c))
}

// runID extracts and validates the {id} path segment. Go 1.22's
// ServeMux decodes %2F inside a path value, so the raw segment can
// contain separators and dot-dots; nothing that fails the strict run-ID
// shape may reach a filesystem path join.
func (s *Server) runID(w http.ResponseWriter, r *http.Request) (string, bool) {
	id := r.PathValue("id")
	if !runlog.ValidID(id) {
		s.writeJSON(w, http.StatusBadRequest, modelio.ErrorJSON{Error: fmt.Sprintf("malformed run id %q", id)})
		return "", false
	}
	return id, true
}

func (s *Server) handleRunGet(w http.ResponseWriter, r *http.Request) {
	if !s.runlogOr404(w) {
		return
	}
	id, ok := s.runID(w, r)
	if !ok {
		return
	}
	rec, ok := s.runlog.Get(id)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, modelio.ErrorJSON{Error: fmt.Sprintf("no run %q", id)})
		return
	}
	s.writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	if !s.runlogOr404(w) {
		return
	}
	id, ok := s.runID(w, r)
	if !ok {
		return
	}
	// ReadArtifact verifies blob-backed content against its digest, so a
	// corrupted trace is an error here, never silently served bytes.
	data, err := s.runlog.ReadArtifact(id, "trace.json")
	if err != nil {
		s.writeJSON(w, http.StatusNotFound, modelio.ErrorJSON{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// handleRunProof serves the Merkle inclusion proof of one run against
// the registry's current chain root: the verifiable half of "these are
// the numbers we published" (see the ledger package).
func (s *Server) handleRunProof(w http.ResponseWriter, r *http.Request) {
	if !s.runlogOr404(w) {
		return
	}
	id, ok := s.runID(w, r)
	if !ok {
		return
	}
	proof, err := s.runlog.Prove(id)
	if err != nil {
		s.writeJSON(w, http.StatusNotFound, modelio.ErrorJSON{Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, proof)
}

func (s *Server) handleRunsCompare(w http.ResponseWriter, r *http.Request) {
	if !s.runlogOr404(w) {
		return
	}
	a, b := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if a == "" || b == "" {
		s.writeJSON(w, http.StatusBadRequest, modelio.ErrorJSON{Error: "compare needs both ?a= and ?b= run IDs"})
		return
	}
	d, err := s.runlog.CompareByID(a, b)
	if err != nil {
		s.writeJSON(w, http.StatusNotFound, modelio.ErrorJSON{Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, d)
}
