package service

// GET /v1/stats — the run-lake aggregation endpoint: the query
// parameters build an agg.Query, the run registry's records stream
// through it, and the response is the deterministic agg.Report (per-
// group count/min/max/mean/p50/p95/p99 of bound, measured and expected
// throughput, cycles, energy, exploration rate and per-stage wall
// times). The same evaluator backs `mamps-runs stats` offline.

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"mamps/internal/modelio"
	"mamps/internal/obs/agg"
	"mamps/internal/runlog"
)

// statsParams are the query parameters /v1/stats understands.
var statsParams = []string{"app", "kind", "graphKey", "baselineKey", "corpus", "groupBy",
	"degraded", "deadlocked", "regressed", "faulted", "since", "until"}

// statsQuery parses the /v1/stats query parameters. Unknown groupBy
// values are reported by agg.Query.Validate; unknown parameters (a
// misspelt filter would otherwise silently match every run), malformed
// booleans and times are 400s raised here.
func statsQuery(r *http.Request) (agg.Query, error) {
	qp := r.URL.Query()
	var unknown []string
	for name := range qp {
		if !slices.Contains(statsParams, name) {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		return agg.Query{}, fmt.Errorf("unknown query parameter %q (want one of %s)", unknown[0], strings.Join(statsParams, ", "))
	}
	q := agg.Query{
		App:         qp.Get("app"),
		Kind:        qp.Get("kind"),
		GraphKey:    qp.Get("graphKey"),
		BaselineKey: qp.Get("baselineKey"),
		Corpus:      qp.Get("corpus"),
		GroupBy:     qp.Get("groupBy"),
	}
	for name, dst := range map[string]*bool{
		"degraded":   &q.Degraded,
		"deadlocked": &q.Deadlocked,
		"regressed":  &q.Regressed,
		"faulted":    &q.Faulted,
	} {
		switch v := qp.Get(name); v {
		case "", "false", "0":
		case "true", "1":
			*dst = true
		default:
			return q, fmt.Errorf("bad %s %q: want true or false", name, v)
		}
	}
	for name, dst := range map[string]*time.Time{"since": &q.Since, "until": &q.Until} {
		v := qp.Get(name)
		if v == "" {
			continue
		}
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return q, fmt.Errorf("bad %s %q: want RFC 3339 (%v)", name, v, err)
		}
		*dst = t
	}
	return q, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.runlogOr404(w) {
		return
	}
	q, err := statsQuery(r)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, modelio.ErrorJSON{Error: err.Error(), Kind: "validation"})
		return
	}
	recs, _ := s.runlog.List(runlog.Filter{})
	rep, err := agg.Aggregate(recs, q)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, modelio.ErrorJSON{Error: err.Error(), Kind: "validation"})
		return
	}
	s.writeJSON(w, http.StatusOK, rep)
}
