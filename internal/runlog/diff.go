package runlog

import (
	"fmt"
	"math"
)

// Delta is one compared quantity: the two values and their absolute and
// relative differences (B relative to A).
type Delta struct {
	A   float64 `json:"a"`
	B   float64 `json:"b"`
	Abs float64 `json:"abs"`
	// Rel is (B-A)/|A|; zero when A is zero and B is zero, +-Inf encoded
	// as a large finite value would be wrong, so it is omitted (NaN->0)
	// when A is zero and B differs — Abs still carries the change.
	Rel float64 `json:"rel"`
}

func delta(a, b float64) Delta {
	d := Delta{A: a, B: b, Abs: b - a}
	if a != 0 {
		d.Rel = (b - a) / math.Abs(a)
	}
	return d
}

// Changed reports whether the two values differ. The flow's kernels are
// deterministic, so any difference is a change.
func (d Delta) Changed() bool {
	return d.A != d.B && (d.A == 0 || math.Abs(d.Abs) > 0)
}

// StageDelta compares one named flow stage's wall time across two runs.
type StageDelta struct {
	Name    string  `json:"name"`
	AMicros float64 `json:"aMicros"`
	BMicros float64 `json:"bMicros"`
	// Ratio is B/A (0 when A is 0).
	Ratio float64 `json:"ratio"`
}

// Diff is the structured comparison of two run records.
type Diff struct {
	// A and B are the compared run IDs (B against A).
	A string `json:"a"`
	B string `json:"b"`
	// GraphKeyChanged marks that the two runs analyzed different
	// canonical graphs — any numeric comparison below is then
	// apples-to-oranges.
	GraphKeyChanged bool `json:"graphKeyChanged,omitempty"`

	Bound    Delta `json:"bound"`
	Measured Delta `json:"measured"`
	Expected Delta `json:"expected"`
	Cycles   Delta `json:"cycles"`
	// EnergyPJ compares the energy-model estimate per iteration — a
	// deterministic fold over the analysis, so it drifts only when the
	// model constants, the binding or the bound change.
	EnergyPJ Delta `json:"energyPJ"`

	// Counter deltas of the deterministic kernel quantities.
	Analyses       Delta `json:"analyses"`
	StatesExplored Delta `json:"statesExplored"`
	SimSteps       Delta `json:"simSteps"`
	BusyCycles     Delta `json:"busyCycles"`
	StallCycles    Delta `json:"stallCycles"`
	FaultEvents    Delta `json:"faultEvents"`
	SolverNodes    Delta `json:"solverNodes"`
	SolverPruned   Delta `json:"solverPruned"`
	// WarmHits and WarmMisses compare the analysis memo's reuse
	// decisions (exact + scaled vs. misses, bailouts being a subset of
	// misses): for a replayed request sequence these are deterministic,
	// so any drift means the reuse policy changed — which must be
	// reviewed, because an over-eager policy is how unsound reuse would
	// first manifest. A legacy record's hint analyses ran cold and count
	// as misses.
	WarmHits   Delta `json:"warmHits"`
	WarmMisses Delta `json:"warmMisses"`

	// Stages compares the per-stage wall times (present in both runs).
	Stages []StageDelta `json:"stages,omitempty"`
}

// Compare builds the structured diff of two records (B against A).
func Compare(a, b *Record) Diff {
	d := Diff{
		A: a.ID, B: b.ID,

		GraphKeyChanged: a.GraphKey != b.GraphKey,
		Bound:           delta(a.Bound, b.Bound),
		Measured:        delta(a.Measured, b.Measured),
		Expected:        delta(a.Expected, b.Expected),
		Cycles:          delta(float64(a.Cycles), float64(b.Cycles)),
		EnergyPJ:        delta(a.EnergyPJ, b.EnergyPJ),
		Analyses:        delta(float64(a.Counters.Analyses), float64(b.Counters.Analyses)),
		StatesExplored:  delta(float64(a.Counters.StatesExplored), float64(b.Counters.StatesExplored)),
		SimSteps:        delta(float64(a.Counters.SimSteps), float64(b.Counters.SimSteps)),
		BusyCycles:      delta(float64(a.Counters.BusyCycles), float64(b.Counters.BusyCycles)),
		StallCycles:     delta(float64(a.Counters.StallCycles), float64(b.Counters.StallCycles)),
		FaultEvents:     delta(float64(a.Counters.FaultEvents), float64(b.Counters.FaultEvents)),
		SolverNodes:     delta(float64(a.Counters.SolverNodes), float64(b.Counters.SolverNodes)),
		SolverPruned:    delta(float64(a.Counters.SolverPruned), float64(b.Counters.SolverPruned)),
		WarmHits: delta(
			float64(a.Counters.WarmExact+a.Counters.WarmScaled),
			float64(b.Counters.WarmExact+b.Counters.WarmScaled)),
		WarmMisses: delta(
			float64(a.Counters.WarmMisses+a.Counters.WarmHint),
			float64(b.Counters.WarmMisses+b.Counters.WarmHint)),
	}
	bSteps := make(map[string]float64, len(b.Steps))
	for _, s := range b.Steps {
		bSteps[s.Name] = s.Micros
	}
	for _, s := range a.Steps {
		bm, ok := bSteps[s.Name]
		if !ok {
			continue
		}
		sd := StageDelta{Name: s.Name, AMicros: s.Micros, BMicros: bm}
		if s.Micros > 0 {
			sd.Ratio = bm / s.Micros
		}
		d.Stages = append(d.Stages, sd)
	}
	return d
}

// CompareByID builds the diff of two runs in the registry.
func (r *Registry) CompareByID(a, b string) (Diff, error) {
	ra, ok := r.Get(a)
	if !ok {
		return Diff{}, fmt.Errorf("runlog: no run %q", a)
	}
	rb, ok := r.Get(b)
	if !ok {
		return Diff{}, fmt.Errorf("runlog: no run %q", b)
	}
	return Compare(&ra, &rb), nil
}

// Regression is the outcome of the on-ingest baseline comparison.
type Regression struct {
	// BaselineID names the reference record (may be empty for imported
	// baselines that never had an ID).
	BaselineID string `json:"baselineID,omitempty"`
	// BaselineKey is the key the comparison matched on.
	BaselineKey string `json:"baselineKey"`
	// Regressed marks any drift; Reasons lists each offending quantity.
	Regressed bool     `json:"regressed"`
	Reasons   []string `json:"reasons,omitempty"`
	// Diff is the full structured comparison against the baseline.
	Diff *Diff `json:"diff,omitempty"`
}

// compareToBaseline runs the regression check of rec against base. Every
// compared quantity is deterministic, so the check is exact; the reasons
// keep their "tolerance 0%" wording, which stored records carry and the
// ledger hashes.
func compareToBaseline(base, rec *Record) *Regression {
	d := Compare(base, rec)
	reg := &Regression{BaselineID: base.ID, BaselineKey: base.baselineKey(), Diff: &d}
	reason := func(format string, args ...any) {
		reg.Regressed = true
		reg.Reasons = append(reg.Reasons, fmt.Sprintf(format, args...))
	}
	if d.GraphKeyChanged {
		reason("graph key changed: %s -> %s (model content drifted, e.g. a WCET)",
			shortKey(base.GraphKey), shortKey(rec.GraphKey))
	}
	if d.Bound.Changed() {
		reason("throughput bound drifted %+.4g%% (%.6g -> %.6g, tolerance 0%%)",
			d.Bound.Rel*100, d.Bound.A, d.Bound.B)
	}
	if d.Measured.Changed() {
		reason("measured throughput drifted %+.4g%% (%.6g -> %.6g, tolerance 0%%)",
			d.Measured.Rel*100, d.Measured.A, d.Measured.B)
	}
	if d.Cycles.Changed() {
		reason("measured cycles drifted %+.4g%% (%.0f -> %.0f, tolerance 0%%)",
			d.Cycles.Rel*100, d.Cycles.A, d.Cycles.B)
	}
	if d.StatesExplored.Changed() {
		reason("states explored drifted %+.4g%% (%.0f -> %.0f, tolerance 0%%)",
			d.StatesExplored.Rel*100, d.StatesExplored.A, d.StatesExplored.B)
	}
	if d.SimSteps.Changed() {
		reason("simulator steps drifted %+.4g%% (%.0f -> %.0f, tolerance 0%%)",
			d.SimSteps.Rel*100, d.SimSteps.A, d.SimSteps.B)
	}
	if d.EnergyPJ.Changed() {
		reason("energy per iteration drifted %+.4g%% (%.6g pJ -> %.6g pJ, tolerance 0%%; energy-model constant or binding changed)",
			d.EnergyPJ.Rel*100, d.EnergyPJ.A, d.EnergyPJ.B)
	}
	if d.SolverNodes.Changed() {
		reason("solver nodes expanded drifted %+.4g%% (%.0f -> %.0f, tolerance 0%%; search order or bound changed)",
			d.SolverNodes.Rel*100, d.SolverNodes.A, d.SolverNodes.B)
	}
	// Warm-start reuse decisions are replay-deterministic, so a silently
	// changed reuse policy (the precursor of unsound reuse) fails loudly
	// rather than passing on luck.
	if d.WarmHits.Changed() {
		reason("warm-start hits drifted (%.0f -> %.0f exact+scaled; reuse policy changed — verify soundness before accepting)",
			d.WarmHits.A, d.WarmHits.B)
	}
	if d.WarmMisses.Changed() {
		reason("warm-start misses drifted (%.0f -> %.0f misses; reuse policy changed — verify soundness before accepting)",
			d.WarmMisses.A, d.WarmMisses.B)
	}
	return reg
}
