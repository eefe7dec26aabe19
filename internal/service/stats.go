package service

// GET /v1/stats — the run-lake aggregation endpoint: the query string
// sets a runlog.Filter plus groupBy, parsed by the same parseQuery as
// GET /v1/runs, and the run registry's records fold into agg under the
// registry lock, newest first, producing the deterministic agg.Report
// (per-group count/min/max/mean/p50/p95/p99 of bound, measured and
// expected throughput, cycles, energy, exploration rate and per-stage
// wall times). The same evaluator backs `mamps-runs stats` offline.

import (
	"net/http"

	"mamps/internal/modelio"
	"mamps/internal/obs/agg"
)

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.runlogOr404(w) {
		return
	}
	var q agg.Query
	fs := q.Flags()
	fs.Func("groupBy", "grouping dimension", func(v string) error {
		q.GroupBy = v
		return q.Validate()
	})
	if !s.parseQuery(w, r, fs) {
		return
	}
	a := agg.New(q)
	s.runlog.Each(a.Add)
	rep, err := a.Report()
	if err != nil {
		s.writeJSON(w, http.StatusInternalServerError, modelio.ErrorJSON{Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}
