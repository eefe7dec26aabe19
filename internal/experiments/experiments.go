// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) from the reproduced flow:
//
//   - Figure 6(a)/(b): measured, expected and worst-case throughput of the
//     MJPEG decoder for a synthetic random sequence and the five-sequence
//     test set, on FSL and NoC platforms;
//   - Table 1: designer effort, with the automated steps timed live and
//     the manual steps quoted from the paper;
//   - Section 6.3: the communication-assist ablation (up to 300% more
//     predicted throughput at the same binding) and the subHeader
//     communication share (~1%);
//   - Section 5.3.1: the +12% router area cost of NoC flow control.
//
// The experiment functions return structured rows; Render* helpers print
// them in the layout of the paper.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/area"
	"mamps/internal/dse"
	"mamps/internal/flow"
	"mamps/internal/mapping"
	"mamps/internal/mjpeg"
	"mamps/internal/noc"
	"mamps/internal/sim"
)

// Config sets the shared workload parameters of the case study.
type Config struct {
	Width, Height int
	Frames        int
	Quality       int
	Tiles         int
}

// loops is the number of times the stream is decoded per measurement.
const loops = 2

// DefaultConfig is the workload used by the experiment commands and
// benchmarks: large enough for stable long-term averages, small enough to
// run in seconds.
func DefaultConfig() Config {
	return Config{Width: 48, Height: 32, Frames: 2, Quality: 90, Tiles: 5}
}

// caseStudyBinding pins one actor per tile, the configuration of the
// paper's case study; it also keeps FSL/NoC comparisons on one mapping.
var caseStudyBinding = map[string]int{"VLD": 0, "IQZZ": 1, "IDCT": 2, "CC": 3, "Raster": 4}

// Fig6Row is one bar group of Figure 6.
type Fig6Row struct {
	Sequence string
	// Throughputs in MCUs per 10^6 cycles (= MCUs per MHz per second).
	WorstCase, Expected, Measured float64
}

// Fig6 runs the Figure 6 experiment for one interconnect: the synthetic
// sequence plus the five-sequence test set. It verifies the guarantee
// (measured ≥ worst case) on every run and fails loudly otherwise.
func Fig6(cfg Config, ic arch.InterconnectKind) ([]Fig6Row, error) {
	kinds := append([]mjpeg.SequenceKind{mjpeg.SeqSynthetic}, mjpeg.TestSet()...)
	rows := make([]Fig6Row, 0, len(kinds))
	for _, kind := range kinds {
		res, err := runSequence(cfg, ic, kind)
		if err != nil {
			return nil, fmt.Errorf("experiments: %v/%v: %w", ic, kind, err)
		}
		if res.Measured < res.WorstCase*(1-1e-9) {
			return nil, fmt.Errorf("experiments: %v/%v: guarantee violated: measured %v < bound %v",
				ic, kind, res.Measured, res.WorstCase)
		}
		rows = append(rows, Fig6Row{
			Sequence:  kind.String(),
			WorstCase: flow.MCUsPerMegacycle(res.WorstCase),
			Expected:  flow.MCUsPerMegacycle(res.Expected),
			Measured:  flow.MCUsPerMegacycle(res.Measured),
		})
	}
	return rows, nil
}

// MeasuredWCETs determines actor execution-time bounds the way the paper
// did ("a method based on [4] combined with execution time measurement",
// Section 6): profile the actors on the synthetic worst-case calibration
// sequence and take the per-actor maxima. Unlike the analytic bounds of
// internal/mjpeg/costs.go these are tight but only valid for inputs whose
// entropy does not exceed the calibration data's.
func MeasuredWCETs(cfg Config) (map[string]int64, error) {
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqSynthetic, cfg.Width, cfg.Height, cfg.Frames, cfg.Quality, mjpeg.Sampling420)
	if err != nil {
		return nil, err
	}
	app, actors, err := mjpeg.BuildApp(stream)
	if err != nil {
		return nil, err
	}
	si := actors.VLD.Info()
	profile, err := appmodel.Run(app, appmodel.RunOptions{
		PE: arch.MicroBlaze, RefActor: "Raster",
		Firings: si.MCUsPerFrame() * si.Frames, Scenario: "calibration",
	})
	if err != nil {
		return nil, err
	}
	return profile.MaxTimes(), nil
}

// Fig6MeasurementBased reruns the Figure 6 experiment with the paper's
// measurement-based WCET methodology: the worst-case analysis line uses
// the maxima measured on the synthetic calibration sequence instead of
// the analytic bounds. This reproduces the paper's observation that the
// margin between the worst-case line and the synthetic measurement is
// very small (< 1% in the paper) when actor execution times vary little.
func Fig6MeasurementBased(cfg Config, ic arch.InterconnectKind) ([]Fig6Row, error) {
	wcets, err := MeasuredWCETs(cfg)
	if err != nil {
		return nil, err
	}
	kinds := append([]mjpeg.SequenceKind{mjpeg.SeqSynthetic}, mjpeg.TestSet()...)
	rows := make([]Fig6Row, 0, len(kinds))
	for _, kind := range kinds {
		res, err := runSequenceOpts(cfg, ic, kind, mapping.Options{
			FixedBinding: caseStudyBinding,
			ExecTimes:    wcets,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %v/%v: %w", ic, kind, err)
		}
		if res.Measured < res.WorstCase*(1-1e-9) {
			return nil, fmt.Errorf("experiments: %v/%v: measurement-based bound violated: measured %v < bound %v",
				ic, kind, res.Measured, res.WorstCase)
		}
		rows = append(rows, Fig6Row{
			Sequence:  kind.String(),
			WorstCase: flow.MCUsPerMegacycle(res.WorstCase),
			Expected:  flow.MCUsPerMegacycle(res.Expected),
			Measured:  flow.MCUsPerMegacycle(res.Measured),
		})
	}
	return rows, nil
}

func runSequence(cfg Config, ic arch.InterconnectKind, kind mjpeg.SequenceKind) (*flow.Result, error) {
	return runSequenceOpts(cfg, ic, kind, mapping.Options{FixedBinding: caseStudyBinding})
}

func runSequenceOpts(cfg Config, ic arch.InterconnectKind, kind mjpeg.SequenceKind, opts mapping.Options) (*flow.Result, error) {
	stream, _, err := mjpeg.EncodeSequence(kind, cfg.Width, cfg.Height, cfg.Frames, cfg.Quality, mjpeg.Sampling420)
	if err != nil {
		return nil, err
	}
	app, actors, err := mjpeg.BuildApp(stream)
	if err != nil {
		return nil, err
	}
	si := actors.VLD.Info()
	return flow.Run(flow.Config{
		App:          app,
		Tiles:        cfg.Tiles,
		Interconnect: ic,
		MapOptions:   opts,
		Iterations:   si.MCUsPerFrame() * si.Frames * loops,
		RefActor:     "Raster",
		Scenario:     kind.String(),
		CheckWCET:    true,
	})
}

// RenderFig6 prints a Figure 6 panel.
func RenderFig6(rows []Fig6Row, title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s %12s %12s %12s\n", "sequence", "worst-case", "expected", "measured")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %12.4f %12.4f %12.4f\n", r.Sequence, r.WorstCase, r.Expected, r.Measured)
	}
	return b.String()
}

// Table1Row is one step of the designer-effort table.
type Table1Row struct {
	Step      string
	Automated bool
	// Elapsed is the live-measured duration for automated steps; for the
	// manual steps it is zero and Quoted carries the paper's figure.
	Elapsed time.Duration
	Quoted  string
}

// Table1 reproduces the designer-effort table: the manual steps are
// quoted from the paper (they measure human work on the original code
// base); the automated steps are timed live on this reproduction.
func Table1(cfg Config) ([]Table1Row, error) {
	res, err := runSequence(cfg, arch.FSL, mjpeg.SeqGradient)
	if err != nil {
		return nil, err
	}
	rows := []Table1Row{
		{Step: "Parallelizing the MJPEG code", Quoted: "< 3 days"},
		{Step: "Creating the SDF graph", Quoted: "5 minutes"},
		{Step: "Gathering required actor metrics", Quoted: "1 day"},
		{Step: "Creating application model", Quoted: "1 hour"},
	}
	for _, s := range res.Steps {
		rows = append(rows, Table1Row{Step: s.Name, Automated: true, Elapsed: s.Elapsed})
	}
	return rows, nil
}

// RenderTable1 prints the designer-effort table.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Designer effort (steps marked 'a' are automated):\n")
	for _, r := range rows {
		mark := " "
		val := r.Quoted
		if r.Automated {
			mark = "a"
			val = r.Elapsed.Round(time.Microsecond).String()
		}
		fmt.Fprintf(&b, "  %-36s %12s %s\n", r.Step, val, mark)
	}
	return b.String()
}

// CAResult is the Section 6.3 communication-assist ablation.
type CAResult struct {
	// PEThroughput and CAThroughput are the SDF3-predicted worst-case
	// throughputs (iterations/cycle) with serialization on the PE and on
	// the CA, at the same actor binding.
	PEThroughput, CAThroughput float64
	// GainPercent is the predicted increase in percent.
	GainPercent float64
	// MeasuredPE and MeasuredCA are the simulator confirmations (the
	// paper could not verify the CA case on hardware; the simulator can).
	MeasuredPE, MeasuredCA float64
}

// CAAblation reproduces the Section 6.3 experiment: replace the
// (de)serialization execution time with the communication assist's and
// remove it from the processing elements, keeping the binding fixed.
func CAAblation(cfg Config) (CAResult, error) {
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, cfg.Width, cfg.Height, cfg.Frames, cfg.Quality, mjpeg.Sampling420)
	if err != nil {
		return CAResult{}, err
	}
	run := func(useCA bool) (float64, float64, error) {
		app, actors, err := mjpeg.BuildApp(stream)
		if err != nil {
			return 0, 0, err
		}
		si := actors.VLD.Info()
		plat, err := arch.DefaultTemplate().Generate("ca_plat", cfg.Tiles, arch.FSL)
		if err != nil {
			return 0, 0, err
		}
		if useCA {
			for _, t := range plat.Tiles {
				t.HasCA = true
			}
		}
		m, err := mapping.Map(app, plat, mapping.Options{FixedBinding: caseStudyBinding, UseCA: useCA})
		if err != nil {
			return 0, 0, err
		}
		r, err := sim.Run(m, sim.Options{
			Iterations: si.MCUsPerFrame() * si.Frames * loops,
			RefActor:   "Raster",
			CheckWCET:  true,
		})
		if err != nil {
			return 0, 0, err
		}
		return m.Analysis.Throughput, r.Throughput, nil
	}
	pe, mpe, err := run(false)
	if err != nil {
		return CAResult{}, err
	}
	ca, mca, err := run(true)
	if err != nil {
		return CAResult{}, err
	}
	return CAResult{
		PEThroughput: pe, CAThroughput: ca,
		GainPercent: (ca/pe - 1) * 100,
		MeasuredPE:  mpe, MeasuredCA: mca,
	}, nil
}

// NoCAreaRow is one mesh size of the flow-control area comparison.
type NoCAreaRow struct {
	Tiles                  int
	MeshW, MeshH           int
	SlicesBase, SlicesFC   int
	OverheadPercent        float64
	PlatformSlicesBase     int
	PlatformSlicesFC       int
	PlatformOverheadPercnt float64
}

// NoCArea reproduces the Section 5.3.1 observation: adding flow control
// to the NoC costs about 12% more router slices.
func NoCArea() []NoCAreaRow {
	var rows []NoCAreaRow
	for _, tiles := range []int{2, 4, 5, 9} {
		w, h := noc.Dimension(tiles)
		base := w * h * area.Router(false).Slices
		fc := w * h * area.Router(true).Slices
		pb, pf := platformSlices(tiles, false), platformSlices(tiles, true)
		rows = append(rows, NoCAreaRow{
			Tiles: tiles, MeshW: w, MeshH: h,
			SlicesBase: base, SlicesFC: fc,
			OverheadPercent:        float64(fc-base) / float64(base) * 100,
			PlatformSlicesBase:     pb,
			PlatformSlicesFC:       pf,
			PlatformOverheadPercnt: float64(pf-pb) / float64(pb) * 100,
		})
	}
	return rows
}

func platformSlices(tiles int, fc bool) int {
	p, err := arch.DefaultTemplate().Generate("a", tiles, arch.NoC)
	if err != nil {
		return 0
	}
	p.Interconnect.FlowControl = fc
	return area.Platform(p, 0).Slices
}

// OverheadResult is the modelling-overhead measurement of Section 6.3:
// the share of interconnect traffic spent on the subHeader channels.
type OverheadResult struct {
	SubHeaderWords, TotalWords int64
	Fraction                   float64
}

// CommOverhead measures the subHeader share of the interconnect traffic.
func CommOverhead(cfg Config) (OverheadResult, error) {
	res, err := runSequence(cfg, arch.FSL, mjpeg.SeqGradient)
	if err != nil {
		return OverheadResult{}, err
	}
	var out OverheadResult
	for name, words := range res.Sim.ChannelWords {
		out.TotalWords += words
		if name == mjpeg.ChanSubHeader1 || name == mjpeg.ChanSubHeader2 {
			out.SubHeaderWords += words
		}
	}
	if out.TotalWords > 0 {
		out.Fraction = float64(out.SubHeaderWords) / float64(out.TotalWords)
	}
	return out, nil
}

// AblationPoint is one configuration of a design-choice sweep.
type AblationPoint struct {
	Value      int     // the swept parameter
	WorstCase  float64 // analyzed bound, iterations/cycle
	Measured   float64 // simulator, iterations/cycle
	MemoryByte int     // total buffer memory, bytes (buffer ablation only)
}

// BufferAblation sweeps the buffer allocation policy (iterations' worth of
// tokens per channel) and reports the throughput/memory trade-off — the
// design choice behind mapping.Options.BufferIterations.
func BufferAblation(cfg Config) ([]AblationPoint, error) {
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, cfg.Width, cfg.Height, cfg.Frames, cfg.Quality, mjpeg.Sampling420)
	if err != nil {
		return nil, err
	}
	var out []AblationPoint
	for iters := 2; iters <= 5; iters++ {
		app, actors, err := mjpeg.BuildApp(stream)
		if err != nil {
			return nil, err
		}
		si := actors.VLD.Info()
		plat, err := arch.DefaultTemplate().Generate("buf", cfg.Tiles, arch.FSL)
		if err != nil {
			return nil, err
		}
		m, err := mapping.Map(app, plat, mapping.Options{
			FixedBinding:     caseStudyBinding,
			BufferIterations: iters,
		})
		if err != nil {
			return nil, err
		}
		r, err := sim.Run(m, sim.Options{
			Iterations: si.MCUsPerFrame() * si.Frames * loops,
			RefActor:   "Raster", CheckWCET: true,
		})
		if err != nil {
			return nil, err
		}
		if r.Throughput < m.Analysis.Throughput*(1-1e-9) {
			return nil, fmt.Errorf("experiments: buffer ablation violated the bound at %d iterations", iters)
		}
		out = append(out, AblationPoint{
			Value:      iters,
			WorstCase:  m.Analysis.Throughput,
			Measured:   r.Throughput,
			MemoryByte: m.Buffers.TotalBytes(app.Graph),
		})
	}
	return out, nil
}

// FIFOAblation sweeps the FSL FIFO depth, the network-buffering design
// choice of the template (w + αn in the Figure 4 model).
func FIFOAblation(cfg Config) ([]AblationPoint, error) {
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, cfg.Width, cfg.Height, cfg.Frames, cfg.Quality, mjpeg.Sampling420)
	if err != nil {
		return nil, err
	}
	var out []AblationPoint
	for _, depth := range []int{2, 4, 8, 16, 32, 64} {
		app, actors, err := mjpeg.BuildApp(stream)
		if err != nil {
			return nil, err
		}
		si := actors.VLD.Info()
		plat, err := arch.DefaultTemplate().Generate("fifo", cfg.Tiles, arch.FSL)
		if err != nil {
			return nil, err
		}
		plat.Interconnect.FIFODepth = depth
		m, err := mapping.Map(app, plat, mapping.Options{FixedBinding: caseStudyBinding})
		if err != nil {
			return nil, err
		}
		r, err := sim.Run(m, sim.Options{
			Iterations: si.MCUsPerFrame() * si.Frames * loops,
			RefActor:   "Raster", CheckWCET: true,
		})
		if err != nil {
			return nil, err
		}
		if r.Throughput < m.Analysis.Throughput*(1-1e-9) {
			return nil, fmt.Errorf("experiments: FIFO ablation violated the bound at depth %d", depth)
		}
		out = append(out, AblationPoint{Value: depth, WorstCase: m.Analysis.Throughput, Measured: r.Throughput})
	}
	return out, nil
}

// SolverDSERow compares the greedy and branch-and-bound binders on one
// platform configuration of the MJPEG sweep.
type SolverDSERow struct {
	Label string
	// Greedy and Solver are the guaranteed throughput bounds of the two
	// binders on the same platform (iterations/cycle).
	Greedy, Solver float64
	// EnergyPJ and Slices are the solver point's other two objectives.
	EnergyPJ float64
	Slices   int
	// Nodes/Pruned are the search counters; Exhaustive is the full
	// assignment-tree node count the bound is measured against.
	Nodes, Pruned, Exhaustive int64
	// Pareto marks membership in the three-objective front.
	Pareto bool
}

// SolverDSE is the global-mapping experiment (EXPERIMENTS.md E10): sweep
// the MJPEG decoder over 1..cfg.Tiles FSL tiles twice — once with the
// greedy binder, once with the branch-and-bound solver — and compare. It
// fails when the solver is ever below the greedy bound at the same tile
// count, or when the search expanded at least as many nodes as
// exhaustive enumeration on a multi-tile platform (no pruning leverage).
func SolverDSE(cfg Config) ([]SolverDSERow, error) {
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, cfg.Width, cfg.Height, cfg.Frames, cfg.Quality, mjpeg.Sampling420)
	if err != nil {
		return nil, err
	}
	app, _, err := mjpeg.BuildApp(stream)
	if err != nil {
		return nil, err
	}
	base := dse.Config{MinTiles: 1, MaxTiles: cfg.Tiles, Interconnects: []arch.InterconnectKind{arch.FSL}}
	greedy, err := dse.Sweep(app, base)
	if err != nil {
		return nil, err
	}
	solvedCfg := base
	solvedCfg.UseSolver = true
	solved, err := dse.Sweep(app, solvedCfg)
	if err != nil {
		return nil, err
	}
	if len(greedy) != len(solved) {
		return nil, fmt.Errorf("experiments: sweep sizes differ: %d vs %d", len(greedy), len(solved))
	}
	onFront := map[string]bool{}
	for _, p := range dse.ParetoFront(solved) {
		onFront[p.Label()] = true
	}
	nActors := app.Graph.NumActors()
	rows := make([]SolverDSERow, 0, len(solved))
	for i, p := range solved {
		if p.Err != nil || greedy[i].Err != nil {
			continue
		}
		if p.Throughput < greedy[i].Throughput {
			return nil, fmt.Errorf("experiments: solver bound %.6g below greedy %.6g at %s",
				p.Throughput, greedy[i].Throughput, p.Label())
		}
		// Full tree: one node per partial assignment of 0..nActors-1 actors.
		exhaustive := int64(0)
		nodes := int64(1)
		for k := 0; k < nActors; k++ {
			exhaustive += nodes
			nodes *= int64(p.Tiles)
		}
		if p.Tiles > 1 && p.Solver.NodesExpanded >= exhaustive {
			return nil, fmt.Errorf("experiments: no pruning at %s: %d nodes of %d exhaustive",
				p.Label(), p.Solver.NodesExpanded, exhaustive)
		}
		rows = append(rows, SolverDSERow{
			Label:      p.Label(),
			Greedy:     greedy[i].Throughput,
			Solver:     p.Throughput,
			EnergyPJ:   p.Energy.TotalPJ,
			Slices:     p.Area.Slices,
			Nodes:      p.Solver.NodesExpanded,
			Pruned:     p.Solver.NodesPruned,
			Exhaustive: exhaustive,
			Pareto:     onFront[p.Label()],
		})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("experiments: no feasible solver sweep points")
	}
	return rows, nil
}
