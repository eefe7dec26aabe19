// Package agg is the run-lake aggregation engine over the run
// registry: a streaming query evaluator that folds runlog records —
// read from an in-memory registry or scanned line by line from the
// JSONL index without ever materializing it — into per-group
// distribution summaries (count, min/max/mean, p50/p95/p99) of the
// quantities the flow guarantees or measures: throughput bound, measured
// throughput, simulated cycles, energy, per-stage wall times and
// exploration rate.
//
// Records are selected by a runlog.Filter (the one record selector,
// shared with /v1/runs and `mamps-runs list`), grouped by a chosen
// dimension (graph key by default), and every numeric quantity is
// observed into a fixed-bucket obs.Histogram per group. The "total" row
// merges the groups' histograms with obs.Histogram.Merge: its counts,
// extremes and percentiles equal those of one group holding every
// matched record, its means up to float summation order.
//
// Everything is deterministic for a deterministic input: bucket layouts
// are fixed at compile time, group keys are sorted, and the JSON wire
// form contains no timestamps or map iteration artifacts — `make
// obs-agg-smoke` replays the corpus twice and compares the rendered
// reports byte for byte.
package agg

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"mamps/internal/obs"
	"mamps/internal/runlog"
)

// Metric names used as keys in GroupStats.Metrics.
const (
	MetricBound       = "bound"            // guaranteed throughput (iterations/cycle)
	MetricMeasured    = "measured"         // executed throughput
	MetricExpected    = "expected"         // re-analyzed expected throughput
	MetricCycles      = "cycles"           // simulated platform cycles
	MetricEnergyPJ    = "energyPJ"         // energy per iteration (picojoule)
	MetricStatesPerS  = "statesPerSec"     // states explored per second of flow wall time
	MetricStageMicros = "stageTotalMicros" // total Table 1 stage wall time (µs)
)

// GroupBy dimensions accepted by Query.GroupBy.
var groupDims = map[string]func(*runlog.Record) string{
	"graphKey":    func(r *runlog.Record) string { return r.GraphKey },
	"app":         func(r *runlog.Record) string { return r.App },
	"kind":        func(r *runlog.Record) string { return r.Kind },
	"baselineKey": func(r *runlog.Record) string { return r.BaselineKey },
	"corpus":      func(r *runlog.Record) string { return r.Corpus },
	"outcome":     func(r *runlog.Record) string { return r.Outcome },
	"none":        func(r *runlog.Record) string { return "" },
}

// GroupDims lists the accepted GroupBy dimensions, sorted.
func GroupDims() []string {
	out := make([]string, 0, len(groupDims))
	for d := range groupDims {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Query selects records with a runlog.Filter and groups them.
type Query struct {
	runlog.Filter
	// GroupBy is the grouping dimension: graphKey (default), app, kind,
	// baselineKey, corpus, outcome or none.
	GroupBy string
}

// Validate checks the GroupBy dimension.
func (q *Query) Validate() error {
	if q.GroupBy == "" {
		return nil
	}
	if _, ok := groupDims[q.GroupBy]; !ok {
		return fmt.Errorf("agg: unknown groupBy %q (want one of %s)", q.GroupBy, strings.Join(GroupDims(), ", "))
	}
	return nil
}

func (q *Query) groupKey(rec *runlog.Record) string {
	dim := q.GroupBy
	if dim == "" {
		dim = "graphKey"
	}
	key := groupDims[dim](rec)
	if key == "" {
		key = "(none)"
	}
	return key
}

// Decades125 returns ascending 1-2.5-5 per-decade bucket bounds from the
// decade containing lo up to (and including) the decade of hi — the
// log-spaced layout the aggregation histograms use, wide enough that
// relative quantile error stays below one bucket step (2.5x) across any
// plausible value range.
func Decades125(lo, hi float64) []float64 {
	if !(lo > 0) || !(hi > lo) {
		panic(fmt.Sprintf("agg: bad Decades125 range [%g, %g]", lo, hi))
	}
	var out []float64
	elo := int(math.Floor(math.Log10(lo)))
	ehi := int(math.Ceil(math.Log10(hi)))
	for e := elo; e <= ehi; e++ {
		p := math.Pow(10, float64(e))
		for _, m := range []float64{1, 2.5, 5} {
			v := m * p
			if v > hi*5 {
				break
			}
			out = append(out, v)
		}
	}
	return out
}

// bucketLayouts fixes, per metric, the histogram layout every group
// uses — shared layouts are what let the total row merge the groups.
var bucketLayouts = map[string]func() *obs.Histogram{
	MetricBound:       func() *obs.Histogram { return obs.NewHistogram(Decades125(1e-9, 10)...) },
	MetricMeasured:    func() *obs.Histogram { return obs.NewHistogram(Decades125(1e-9, 10)...) },
	MetricExpected:    func() *obs.Histogram { return obs.NewHistogram(Decades125(1e-9, 10)...) },
	MetricCycles:      func() *obs.Histogram { return obs.NewHistogram(Decades125(1, 1e12)...) },
	MetricEnergyPJ:    func() *obs.Histogram { return obs.NewHistogram(Decades125(1, 1e13)...) },
	MetricStatesPerS:  func() *obs.Histogram { return obs.NewHistogram(Decades125(100, 1e10)...) },
	MetricStageMicros: func() *obs.Histogram { return obs.NewHistogram(Decades125(0.1, 1e9)...) },
}

// newMetricHistogram returns the fixed layout for a metric name; stage
// metrics (any name not in the table) use the wall-micros layout.
func newMetricHistogram(name string) *obs.Histogram {
	if mk, ok := bucketLayouts[name]; ok {
		return mk()
	}
	return bucketLayouts[MetricStageMicros]()
}

// acc accumulates one metric within one group: the fixed-bucket
// histogram for quantiles plus exact min/max/sum so small groups (a
// single run per graph key is common) still report exact extremes.
type acc struct {
	h        *obs.Histogram
	min, max float64
	sum      float64
	n        uint64
}

func (a *acc) observe(v float64) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.sum += v
	a.n++
	a.h.Observe(v)
}

func (a *acc) merge(b *acc) error {
	if b.n == 0 {
		return nil
	}
	if err := a.h.Merge(b.h); err != nil {
		return err
	}
	if a.n == 0 || b.min < a.min {
		a.min = b.min
	}
	if a.n == 0 || b.max > a.max {
		a.max = b.max
	}
	a.sum += b.sum
	a.n += b.n
	return nil
}

// Dist is the wire summary of one metric's distribution within a group.
// Min, Max and Mean are exact; the percentiles are the histogram
// estimates (saturating at the layout's last bound).
type Dist struct {
	Count uint64  `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func (a *acc) dist() Dist {
	return Dist{
		Count: a.n,
		Min:   a.min,
		Max:   a.max,
		Mean:  a.sum / float64(a.n),
		P50:   a.h.Quantile(0.50),
		P95:   a.h.Quantile(0.95),
		P99:   a.h.Quantile(0.99),
	}
}

// groupAcc accumulates one group.
type groupAcc struct {
	runs      int
	outcomes  map[string]int
	regressed int
	metrics   map[string]*acc
	stages    map[string]*acc
}

func newGroupAcc() *groupAcc {
	return &groupAcc{
		outcomes: map[string]int{},
		metrics:  map[string]*acc{},
		stages:   map[string]*acc{},
	}
}

func (g *groupAcc) observe(m map[string]*acc, name string, v float64) {
	a, ok := m[name]
	if !ok {
		a = &acc{h: newMetricHistogram(name)}
		m[name] = a
	}
	a.observe(v)
}

func (g *groupAcc) add(rec *runlog.Record) {
	g.runs++
	g.outcomes[rec.Outcome]++
	if rec.Regression != nil && rec.Regression.Regressed {
		g.regressed++
	}
	if rec.Bound > 0 {
		g.observe(g.metrics, MetricBound, rec.Bound)
	}
	if rec.Measured > 0 {
		g.observe(g.metrics, MetricMeasured, rec.Measured)
	}
	if rec.Expected > 0 {
		g.observe(g.metrics, MetricExpected, rec.Expected)
	}
	if rec.Cycles > 0 {
		g.observe(g.metrics, MetricCycles, float64(rec.Cycles))
	}
	if rec.EnergyPJ > 0 {
		g.observe(g.metrics, MetricEnergyPJ, rec.EnergyPJ)
	}
	var totalMicros float64
	for _, st := range rec.Steps {
		if st.Micros < 0 {
			continue
		}
		totalMicros += st.Micros
		g.observe(g.stages, st.Name, st.Micros)
	}
	if totalMicros > 0 {
		g.observe(g.metrics, MetricStageMicros, totalMicros)
		if rec.Counters.StatesExplored > 0 {
			g.observe(g.metrics, MetricStatesPerS,
				float64(rec.Counters.StatesExplored)/(totalMicros/1e6))
		}
	}
}

func (g *groupAcc) merge(o *groupAcc) error {
	g.runs += o.runs
	for k, v := range o.outcomes {
		g.outcomes[k] += v
	}
	g.regressed += o.regressed
	for _, pair := range []struct{ dst, src map[string]*acc }{
		{g.metrics, o.metrics}, {g.stages, o.stages},
	} {
		for name, src := range pair.src {
			dst, ok := pair.dst[name]
			if !ok {
				dst = &acc{h: newMetricHistogram(name)}
				pair.dst[name] = dst
			}
			if err := dst.merge(src); err != nil {
				return fmt.Errorf("agg: metric %s: %w", name, err)
			}
		}
	}
	return nil
}

func (g *groupAcc) stats(key string) GroupStats {
	gs := GroupStats{
		Key:       key,
		Runs:      g.runs,
		Outcomes:  g.outcomes,
		Regressed: g.regressed,
	}
	if len(g.metrics) > 0 {
		gs.Metrics = make(map[string]Dist, len(g.metrics))
		for name, a := range g.metrics {
			gs.Metrics[name] = a.dist()
		}
	}
	if len(g.stages) > 0 {
		gs.Stages = make(map[string]Dist, len(g.stages))
		for name, a := range g.stages {
			gs.Stages[name] = a.dist()
		}
	}
	return gs
}

// GroupStats is the wire summary of one group.
type GroupStats struct {
	// Key is the group's value of the GroupBy dimension ("(none)" when
	// the dimension is empty on the record, "total" for the rollup row).
	Key string `json:"key"`
	// Runs counts matched records; Outcomes splits them by outcome.
	Runs     int            `json:"runs"`
	Outcomes map[string]int `json:"outcomes"`
	// Regressed counts runs tagged by the regression detector.
	Regressed int `json:"regressed,omitempty"`
	// Metrics holds the run-level distributions (MetricBound, ...);
	// Stages the per-Table 1-stage wall-time distributions in µs.
	Metrics map[string]Dist `json:"metrics,omitempty"`
	Stages  map[string]Dist `json:"stages,omitempty"`
}

// Report is the aggregation result: one GroupStats per group (sorted by
// key) plus the merged total.
type Report struct {
	GroupBy string `json:"groupBy"`
	// Scanned counts records examined, Matched those passing the filter.
	Scanned int `json:"scanned"`
	Matched int `json:"matched"`
	// Truncated marks a JSONL scan that stopped at a garbled line (the
	// crash-truncation signature runlog tolerates on recovery).
	Truncated bool         `json:"truncated,omitempty"`
	Groups    []GroupStats `json:"groups"`
	Total     GroupStats   `json:"total"`
}

// Aggregator folds records into a Report. Not safe for concurrent use.
type Aggregator struct {
	q       Query
	scanned int
	matched int
	trunc   bool
	groups  map[string]*groupAcc
}

// New returns an empty aggregator for the query. The query must
// Validate.
func New(q Query) *Aggregator {
	return &Aggregator{q: q, groups: map[string]*groupAcc{}}
}

// Add examines one record, folding it in when it matches the query.
func (a *Aggregator) Add(rec *runlog.Record) {
	a.scanned++
	if !a.q.Match(rec) {
		return
	}
	a.matched++
	key := a.q.groupKey(rec)
	g, ok := a.groups[key]
	if !ok {
		g = newGroupAcc()
		a.groups[key] = g
	}
	g.add(rec)
}

// Report renders the aggregation: groups sorted by key, plus a "total"
// rollup produced by merging every group's histograms.
func (a *Aggregator) Report() (*Report, error) {
	dim := a.q.GroupBy
	if dim == "" {
		dim = "graphKey"
	}
	rep := &Report{
		GroupBy: dim, Scanned: a.scanned, Matched: a.matched, Truncated: a.trunc,
		Groups: make([]GroupStats, 0, len(a.groups)),
	}
	keys := make([]string, 0, len(a.groups))
	for k := range a.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := newGroupAcc()
	for _, k := range keys {
		g := a.groups[k]
		rep.Groups = append(rep.Groups, g.stats(k))
		if err := total.merge(g); err != nil {
			return nil, err
		}
	}
	rep.Total = total.stats("total")
	return rep, nil
}

// ScanJSONL streams a runlog JSONL index through the query without
// holding more than one record in memory — the entry point that scales
// to indexes far larger than RAM. A garbled line ends the scan (every
// byte after it is suspect, exactly the recovery rule runlog applies)
// and marks the report Truncated instead of failing: a crash-truncated
// tail must not take the stats endpoint down with it.
func ScanJSONL(r io.Reader, q Query) (*Report, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	a := New(q)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec runlog.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			a.trunc = true
			break
		}
		a.Add(&rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("agg: scanning index: %w", err)
	}
	return a.Report()
}
