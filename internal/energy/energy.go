// Package energy estimates the energy consumption of a mapped
// application on a generated MAMPS platform: dynamic energy per actor
// firing on its processing element, communication energy per word moved
// over the interconnect (per FSL word or per NoC hop and word), and
// static power integrated over the iteration period. Folding the model
// over the state-space analysis (the guaranteed period) or over a
// simulator execution (the measured period) yields joules per graph
// iteration and average watts at the platform clock.
//
// Calibration follows the OFFIS power/execution-time measurement
// methodology for SDF applications on FPGA MPSoCs (Schlaak, Fakih et
// al.): per-component constants measured once on the target fabric,
// then composed per mapping — the same structure as the area model of
// internal/area. The defaults encode published Virtex-class figures at
// the template's 100 MHz clock; like the slice costs, they are
// calibration constants, not synthesis results.
package energy

import (
	"fmt"

	"mamps/internal/arch"
	"mamps/internal/mapping"
	"mamps/internal/noc"
)

// Default calibration constants, in picojoules. Provenance per
// component (all at 100 MHz on a Virtex-class fabric, rounded to whole
// picojoules; see DESIGN.md §5f for the derivation):
const (
	// PEDynamicPJPerCycle is the dynamic energy of one busy MicroBlaze
	// cycle (core + local memory): ~23 mW active power at 100 MHz.
	PEDynamicPJPerCycle = 230.0
	// CADynamicPJPerCycle is the dynamic energy of one busy
	// communication-assist cycle: a small DMA engine, ~8 mW active.
	CADynamicPJPerCycle = 80.0
	// TileStaticPJPerCycle is the static (leakage + clock-tree) power of
	// one tile, ~12 mW, burned every cycle regardless of activity.
	TileStaticPJPerCycle = 120.0
	// RouterStaticPJPerCycle is the static power of one SDM NoC router,
	// ~4.5 mW per router.
	RouterStaticPJPerCycle = 45.0
	// FSLPJPerWord is the energy of moving one 32-bit word through a
	// dedicated FSL FIFO.
	FSLPJPerWord = 6.0
	// NoCPJPerHopWord is the energy of moving one 32-bit word across one
	// NoC link (router traversal + link toggling).
	NoCPJPerHopWord = 12.0
)

// Model is one set of calibration constants. Keeping them in a struct
// (rather than package constants alone) lets the regression corpus
// perturb a constant to prove the energy gate fires, and lets a user
// recalibrate for a different fabric without recompiling.
type Model struct {
	PEDynamicPJPerCycle    float64
	CADynamicPJPerCycle    float64
	TileStaticPJPerCycle   float64
	RouterStaticPJPerCycle float64
	FSLPJPerWord           float64
	NoCPJPerHopWord        float64
}

// DefaultModel returns the calibration constants above.
func DefaultModel() Model {
	return Model{
		PEDynamicPJPerCycle:    PEDynamicPJPerCycle,
		CADynamicPJPerCycle:    CADynamicPJPerCycle,
		TileStaticPJPerCycle:   TileStaticPJPerCycle,
		RouterStaticPJPerCycle: RouterStaticPJPerCycle,
		FSLPJPerWord:           FSLPJPerWord,
		NoCPJPerHopWord:        NoCPJPerHopWord,
	}
}

// Report is the energy estimate of one mapped application, per graph
// iteration.
type Report struct {
	// DynamicPJ is the computation energy per iteration: every actor
	// firing's WCET cycles on its PE, plus the (de)serialization cycles
	// of inter-tile channels on the PE or communication assist that
	// executes them.
	DynamicPJ float64 `json:"dynamicPJ"`
	// CommPJ is the interconnect energy per iteration: words moved times
	// the per-word (FSL) or per-hop-word (NoC) cost.
	CommPJ float64 `json:"commPJ"`
	// StaticPJ is the static power of all tiles and routers integrated
	// over one iteration period.
	StaticPJ float64 `json:"staticPJ"`
	// TotalPJ = DynamicPJ + CommPJ + StaticPJ.
	TotalPJ float64 `json:"totalPJ"`
	// PeriodCycles is the iteration period the static share was
	// integrated over (1/throughput for the analysis fold, measured
	// cycles per iteration for the execution fold).
	PeriodCycles float64 `json:"periodCycles"`
	// AvgWatts is the average power at the platform clock:
	// TotalPJ / (PeriodCycles / f_clk).
	AvgWatts float64 `json:"avgWatts"`
}

// OfMapping folds the model over the mapping's verified worst-case
// analysis: the iteration period is 1/Analysis.Throughput, so the
// report is the guaranteed-throughput energy point the DSE trades
// against area and throughput.
func (mod Model) OfMapping(m *mapping.Mapping) (Report, error) {
	if m.Analysis.Throughput.IsZero() {
		return Report{}, fmt.Errorf("energy: mapping has no verified throughput (deadlocked or unanalyzed)")
	}
	return mod.fold(m, 1/m.Analysis.Throughput.Float())
}

// OfExecution folds the model over a simulator execution: cycles is the
// total simulated time for iterations graph iterations, so the static
// share is integrated over the measured period instead of the
// worst-case bound.
func (mod Model) OfExecution(m *mapping.Mapping, iterations int, cycles int64) (Report, error) {
	if iterations <= 0 || cycles <= 0 {
		return Report{}, fmt.Errorf("energy: execution fold needs positive iterations (%d) and cycles (%d)", iterations, cycles)
	}
	return mod.fold(m, float64(cycles)/float64(iterations))
}

// fold computes the per-iteration report for a given iteration period.
func (mod Model) fold(m *mapping.Mapping, periodCycles float64) (Report, error) {
	g := m.App.Graph
	q, err := g.RepetitionVector()
	if err != nil {
		return Report{}, err
	}

	var r Report
	r.PeriodCycles = periodCycles

	// Computation: every firing's WCET on the PE that executes it.
	for _, a := range g.Actors() {
		tile := m.TileOf[a.ID]
		im := m.App.ImplFor(a.ID, m.Platform.Tiles[tile].PE)
		if im == nil {
			return Report{}, fmt.Errorf("energy: actor %q has no implementation on tile %d", a.Name, tile)
		}
		r.DynamicPJ += float64(im.WCET*q[a.ID]) * mod.PEDynamicPJPerCycle
	}

	// Inter-tile channels: (de)serialization cycles on the executing
	// engine (PE or CA, per the mapping's communication parameters) plus
	// the interconnect transfer energy per word.
	for _, c := range g.Channels() {
		p, ok := m.CommParams[c.ID]
		if !ok {
			continue // intra-tile: tokens stay in local memory
		}
		tokens := float64(g.IterationTokens(c, q))
		words := float64(c.Words())

		serCycles := float64(p.SerFixed) + words*float64(p.SerPerWord)
		deserCycles := float64(p.DeserFixed) + words*float64(p.DeserPerWord)
		serPJ, deserPJ := mod.PEDynamicPJPerCycle, mod.PEDynamicPJPerCycle
		if p.SrcOnCA {
			serPJ = mod.CADynamicPJPerCycle
		}
		if p.DstOnCA {
			deserPJ = mod.CADynamicPJPerCycle
		}
		r.DynamicPJ += tokens * (serCycles*serPJ + deserCycles*deserPJ)

		switch m.Platform.Interconnect.Kind {
		case arch.NoC:
			hops := 1.0
			if conn, ok := m.Connections[c.ID]; ok {
				hops = float64(conn.Hops())
			}
			r.CommPJ += tokens * words * hops * mod.NoCPJPerHopWord
		default:
			r.CommPJ += tokens * words * mod.FSLPJPerWord
		}
	}

	// Static power of the whole platform over one period.
	staticPerCycle := float64(len(m.Platform.Tiles)) * mod.TileStaticPJPerCycle
	if m.Platform.Interconnect.Kind == arch.NoC {
		w, h := noc.Dimension(len(m.Platform.Tiles))
		staticPerCycle += float64(w*h) * mod.RouterStaticPJPerCycle
	}
	r.StaticPJ = staticPerCycle * periodCycles

	r.TotalPJ = r.DynamicPJ + r.CommPJ + r.StaticPJ
	// pJ/iteration ÷ cycles/iteration × cycles/second × 1e-12 J/pJ.
	if periodCycles > 0 && m.Platform.ClockMHz > 0 {
		r.AvgWatts = r.TotalPJ / periodCycles * float64(m.Platform.ClockMHz) * 1e6 * 1e-12
	}
	return r, nil
}
