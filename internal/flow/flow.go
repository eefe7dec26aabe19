// Package flow implements the automated design flow of the paper's
// Figure 1: from an application model (SDF graph + actor implementations
// + metrics) and an architecture model (template-based platform), through
// SDF3 mapping and MAMPS platform generation, to an executing platform —
// here the cycle-level simulator standing in for the FPGA.
//
// The flow reports three throughput numbers per run, matching Figure 6:
//
//   - WorstCase: the guaranteed bound from the binding-aware analysis
//     using the actor WCETs. The flow guarantees the platform meets it.
//   - Measured: the long-term average achieved by the executing platform
//     on the given input data.
//   - Expected: the analysis re-run with the maximum *measured* execution
//     times of the actors on that input data (the paper's "expected"
//     bars), which shows the tightness of the model.
//
// Every automated step is timed, reproducing the bottom half of Table 1.
package flow

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/clock"
	"mamps/internal/faults"
	"mamps/internal/mapping"
	"mamps/internal/obs"
	"mamps/internal/platgen"
	"mamps/internal/sdf"
	"mamps/internal/service/cache"
	"mamps/internal/sim"
	"mamps/internal/wcet"
)

// Config configures a flow run.
type Config struct {
	// App is the application model (must have executable actors for the
	// platform execution; analysis-only models can still be mapped and
	// generated).
	App *appmodel.App

	// Platform to map onto. If nil, a platform with Tiles tiles and the
	// given Interconnect is generated from the template (the automated
	// "generating architecture model" step of Table 1).
	Platform     *arch.Platform
	Tiles        int
	Interconnect arch.InterconnectKind

	// MapOptions steer the SDF3 step.
	MapOptions mapping.Options

	// Iterations to execute on the platform; zero skips execution (and
	// the Expected analysis).
	Iterations int
	// RefActor is the actor whose completions define an iteration.
	RefActor string
	// Scenario labels the profile observations (e.g. the test-sequence
	// name).
	Scenario string
	// CheckWCET aborts execution on a WCET violation (on by default in
	// experiments; here opt-in).
	CheckWCET bool

	// Faults, if non-nil and non-empty, injects the deterministic fault
	// scenario into the platform execution (see package faults). A tile
	// fail-stop triggers degraded-mode recovery: the flow re-maps onto the
	// surviving tiles, re-verifies the bound, re-executes under the same
	// scenario minus the fail-stop, and reports the outcome in
	// Result.Degraded.
	Faults *faults.Spec
	// TargetThroughput is the application's throughput constraint in
	// iterations/cycle, checked by the degraded-mode recovery. Zero means
	// "the original mapping's worst-case bound".
	TargetThroughput float64

	// Clock is the time source for the Table 1 step timings. Nil selects
	// the system's monotonic clock; service tests inject a fake so step
	// durations are deterministic and robust to wall-clock jumps.
	Clock clock.Clock

	// Obs, if non-nil, records the run into the unified telemetry layer:
	// one wall-clock span per flow stage on the "flow" track, one span
	// per state-space analysis on the "statespace" track (with states
	// and throughput attributes), the simulator's actor and channel
	// lanes on cycle-domain tracks (including still-open firings closed
	// at the final simulated time), and the kernel counter groups. Nil
	// disables all of it at no cost.
	Obs *obs.Set
}

// StepTiming records one design-flow step, as in Table 1.
type StepTiming struct {
	Name      string
	Automated bool
	Elapsed   time.Duration
}

// Result is the outcome of a flow run.
type Result struct {
	Platform *arch.Platform
	Mapping  *mapping.Mapping
	Project  *platgen.Project

	// WorstCase is the guaranteed throughput bound, Measured the
	// platform's achieved throughput (0 if not executed) and Expected the
	// analysis with maximum measured execution times (0 if not executed),
	// as floats in iterations/cycle for reports and run records. Compare
	// the exact Mapping.Analysis.Throughput and Sim.Throughput instead.
	WorstCase float64
	Measured  float64
	Expected  float64

	Profile *wcet.Profile
	Sim     *sim.Result
	Steps   []StepTiming

	// Degraded reports the outcome of degraded-mode recovery after a tile
	// fail-stop (nil when no fail-stop occurred).
	Degraded *Degraded
}

// Degraded is the flow's answer to a tile fail-stop: the application
// re-mapped, re-verified and re-executed on the surviving tiles.
type Degraded struct {
	// FailedTile and FailCycle identify the injected fail-stop.
	FailedTile string
	FailCycle  int64
	// SurvivingTiles names the tiles the degraded mapping may use.
	SurvivingTiles []string
	// Mapping is the degraded mapping on the surviving tiles.
	Mapping *mapping.Mapping
	// WorstCase is the degraded mapping's guaranteed throughput bound and
	// Measured its achieved throughput under the remaining fault scenario
	// (the original scenario minus the fail-stop).
	WorstCase sdf.Rate
	Measured  sdf.Rate
	// ConstraintMet reports whether WorstCase still meets the throughput
	// constraint (Config.TargetThroughput, defaulting to the original
	// mapping's bound), compared exactly.
	ConstraintMet bool
	// MigratedActors names the actors bound to a different tile than in
	// the original mapping; MigrationBytes totals the instruction and data
	// memory that must move with them — the mode-transition cost.
	MigratedActors []string
	MigrationBytes int64
}

// MCUsPerMegacycle converts a throughput in iterations per cycle into the
// paper's Figure 6 unit, MCUs (iterations) per 10^6 cycles — numerically
// equal to "MCUs per second per MHz of platform clock".
func MCUsPerMegacycle(thr float64) float64 { return thr * 1e6 }

// Run executes the flow without cancellation, on the system clock.
func Run(cfg Config) (*Result, error) { return RunContext(context.Background(), cfg) }

// RunContext executes the flow. The context is checked between steps and
// threaded into the state-space analyses, so a cancelled or expired
// context aborts even a long throughput verification; the error then
// wraps ctx.Err.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.App == nil {
		return nil, fmt.Errorf("flow: no application model")
	}
	if err := cfg.App.Validate(); err != nil {
		return nil, err
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.System()
	}
	engine, err := cfg.Faults.Engine()
	if err != nil {
		return nil, err
	}
	// Make the deep analyses cancellable and observed, unless the caller
	// installed its own analyzer (e.g. the service's memoizing one).
	if cfg.MapOptions.Analyze == nil {
		cfg.MapOptions.Analyze = cache.Analyzer(nil, ctx, cfg.Obs)
	}
	flowScope := cfg.Obs.TraceOf().Scope("flow")
	res := &Result{}
	var stageSpan obs.Span
	step := func(name string, automated bool, f func() error) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("flow: cancelled before %q: %w", name, err)
		}
		stageSpan = flowScope.Begin(name,
			obs.String("app", cfg.App.Name),
			obs.Int("actors", int64(cfg.App.Graph.NumActors())),
		)
		start := clk.Now()
		err := f()
		res.Steps = append(res.Steps, StepTiming{Name: name, Automated: automated, Elapsed: clk.Since(start)})
		if err == nil && ctx.Err() != nil {
			err = fmt.Errorf("flow: cancelled during %q: %w", name, ctx.Err())
		}
		if err != nil {
			stageSpan.SetAttrs(obs.String("error", err.Error()))
		}
		stageSpan.End()
		return err
	}

	// Architecture model.
	if cfg.Platform != nil {
		res.Platform = cfg.Platform
		if err := res.Platform.Validate(); err != nil {
			return nil, err
		}
	} else {
		if cfg.Tiles <= 0 {
			return nil, fmt.Errorf("flow: need a platform or a tile count")
		}
		if err := step("Generating architecture model", true, func() error {
			p, err := arch.DefaultTemplate().Generate(cfg.App.Name+"_plat", cfg.Tiles, cfg.Interconnect)
			res.Platform = p
			return err
		}); err != nil {
			return nil, err
		}
		stageSpan.SetAttrs(
			obs.Int("tiles", int64(len(res.Platform.Tiles))),
			obs.String("interconnect", cfg.Interconnect.String()),
		)
	}

	// SDF3 mapping.
	if err := step("Mapping the design (SDF3)", true, func() error {
		m, err := mapping.Map(cfg.App, res.Platform, cfg.MapOptions)
		res.Mapping = m
		return err
	}); err != nil {
		return nil, err
	}
	res.WorstCase = res.Mapping.Analysis.Throughput.Float()
	stageSpan.SetAttrs(obs.Float("worstCaseThroughput", res.WorstCase))

	// MAMPS platform generation.
	if err := step("Generating Xilinx project (MAMPS)", true, func() error {
		p, err := platgen.Generate(res.Mapping)
		res.Project = p
		return err
	}); err != nil {
		return nil, err
	}

	if cfg.Iterations <= 0 {
		return res, nil
	}

	// Synthesis: elaborating the executable platform. When tracing, the
	// simulator's event stream is recorded as lanes to be added to the
	// cycle domain of the trace afterwards.
	var s *sim.Simulation
	var lanes *simLanes
	var simTrace func(event, subject string, now int64)
	if tr := cfg.Obs.TraceOf(); tr != nil {
		lanes = &simLanes{open: make(map[string]int64)}
		simTrace = lanes.record
	}
	if err := step("Synthesis of the system", true, func() error {
		var err error
		s, err = sim.New(res.Mapping, sim.Options{
			Iterations: cfg.Iterations,
			RefActor:   cfg.RefActor,
			CheckWCET:  cfg.CheckWCET,
			Scenario:   cfg.Scenario,
			Interrupt:  ctx.Done(),
			Trace:      simTrace,
			Telemetry:  cfg.Obs.SimOf(),
			Faults:     engine,
		})
		return err
	}); err != nil {
		return nil, err
	}

	// Execution on the platform. The lanes are traced even when
	// execution fails (deadlock, WCET violation, cancellation): firings
	// still in flight are closed at the final simulated time and marked
	// open, which is exactly the timeline a designer needs to see why the
	// platform stalled.
	execErr := step("Executing on platform", true, func() error {
		r, err := s.RunContext(ctx)
		res.Sim = r
		return err
	})
	if lanes != nil {
		lanes.addTo(cfg.Obs.TraceOf(), s.Now(), res.Sim)
	}
	if execErr != nil {
		// A tile fail-stop is not the end of the flow: re-map onto the
		// surviving tiles and report the degraded mode.
		var tf *faults.ErrTileFailed
		if errors.As(execErr, &tf) {
			if err := runDegraded(ctx, cfg, res, engine, tf, step); err != nil {
				return nil, err
			}
			return res, nil
		}
		return nil, execErr
	}
	res.Measured = res.Sim.Throughput.Float()
	res.Profile = res.Sim.Profile
	stageSpan.SetAttrs(
		obs.Float("measuredThroughput", res.Measured),
		obs.Int("cycles", s.Now()),
	)

	// Expected-case analysis: same binding, maximum measured times.
	if err := step("Expected-case analysis (SDF3)", true, func() error {
		opts := cfg.MapOptions
		opts.ExecTimes = res.Profile.MaxTimes()
		opts.FixedBinding = make(map[string]int, cfg.App.Graph.NumActors())
		for _, a := range cfg.App.Graph.Actors() {
			opts.FixedBinding[a.Name] = res.Mapping.TileOf[a.ID]
		}
		m, err := mapping.Map(cfg.App, res.Platform, opts)
		if err != nil {
			return fmt.Errorf("flow: expected-case analysis: %w", err)
		}
		res.Expected = m.Analysis.Throughput.Float()
		return nil
	}); err != nil {
		return nil, err
	}
	stageSpan.SetAttrs(obs.Float("expectedThroughput", res.Expected))
	return res, nil
}

// runDegraded is the flow's degraded-mode recovery after a tile
// fail-stop: re-run binding and static-order scheduling with the failed
// tile disabled, re-verify the throughput bound, re-execute under the
// remaining fault scenario (fail-stop removed — the tile is already gone
// from the platform), and record the outcome, including the migration
// cost, in res.Degraded.
func runDegraded(ctx context.Context, cfg Config, res *Result, engine *faults.Engine,
	tf *faults.ErrTileFailed, step func(string, bool, func() error) error) error {
	failed := -1
	for i, tl := range res.Platform.Tiles {
		if tl.Name == tf.Tile {
			failed = i
			break
		}
	}
	if failed < 0 {
		return fmt.Errorf("flow: failed tile %q not in platform", tf.Tile)
	}
	deg := &Degraded{FailedTile: tf.Tile, FailCycle: tf.Cycle}
	for i, tl := range res.Platform.Tiles {
		if i != failed {
			deg.SurvivingTiles = append(deg.SurvivingTiles, tl.Name)
		}
	}

	if err := step("Degraded re-mapping (SDF3)", true, func() error {
		opts := cfg.MapOptions
		opts.DisabledTiles = append(append([]int(nil), opts.DisabledTiles...), failed)
		opts.FixedBinding = nil
		m, err := mapping.Map(cfg.App, res.Platform, opts)
		if err != nil {
			return fmt.Errorf("flow: degraded re-mapping after %q failed at cycle %d: %w", tf.Tile, tf.Cycle, err)
		}
		deg.Mapping = m
		return nil
	}); err != nil {
		return err
	}
	deg.WorstCase = deg.Mapping.Analysis.Throughput
	if cfg.TargetThroughput == 0 {
		deg.ConstraintMet = deg.WorstCase.Cmp(res.Mapping.Analysis.Throughput) >= 0
	} else {
		deg.ConstraintMet = deg.WorstCase.Meets(cfg.TargetThroughput)
	}

	// Migration cost: every actor now on a different tile must move its
	// implementation memory there.
	g := cfg.App.Graph
	for _, a := range g.Actors() {
		from, to := res.Mapping.TileOf[a.ID], deg.Mapping.TileOf[a.ID]
		if from == to {
			continue
		}
		deg.MigratedActors = append(deg.MigratedActors, a.Name)
		if im := cfg.App.ImplFor(a.ID, res.Platform.Tiles[to].PE); im != nil {
			deg.MigrationBytes += int64(im.InstrMem + im.DataMem)
		}
	}

	if err := step("Degraded execution on platform", true, func() error {
		sp := engine.Spec()
		degEngine, err := sp.WithoutFailStop().Engine()
		if err != nil {
			return err
		}
		r, err := sim.RunContext(ctx, deg.Mapping, sim.Options{
			Iterations: cfg.Iterations,
			RefActor:   cfg.RefActor,
			CheckWCET:  cfg.CheckWCET,
			Scenario:   cfg.Scenario + "-degraded",
			Telemetry:  cfg.Obs.SimOf(),
			Faults:     degEngine,
		})
		if err != nil {
			return fmt.Errorf("flow: degraded execution: %w", err)
		}
		deg.Measured = r.Throughput
		return nil
	}); err != nil {
		return err
	}
	res.Degraded = deg
	return nil
}

// simLanes records the simulator's event stream: each "exec-start" and
// "exec-end" pair becomes an "exec" span on the actor's lane, and every
// other event an instant mark on its subject's lane.
type simLanes struct {
	spans []laneSpan
	open  map[string]int64 // lane -> start of its in-flight firing
}

type laneSpan struct {
	lane, label string
	start, end  int64
}

func (l *simLanes) record(event, subject string, now int64) {
	switch event {
	case "exec-start":
		l.open[subject] = now
	case "exec-end":
		if start, ok := l.open[subject]; ok {
			l.spans = append(l.spans, laneSpan{subject, "exec", start, now})
			delete(l.open, subject)
		}
	default:
		l.spans = append(l.spans, laneSpan{subject, event, now, now})
	}
}

// addTo adds the recorded lanes to the trace's platform-cycle domain in
// (start, lane) order. Firings still in flight (the run deadlocked or was
// interrupted) are closed at the final simulated time end, or at their own
// start if that is later, and labelled "exec (open)". When a result is
// available, each tile additionally gets a full-run summary span carrying
// its busy/stall cycle split and utilization.
func (l *simLanes) addTo(tr *obs.Trace, end int64, r *sim.Result) {
	for lane, start := range l.open {
		l.spans = append(l.spans, laneSpan{lane, "exec (open)", start, max(start, end)})
	}
	sort.SliceStable(l.spans, func(i, j int) bool {
		if l.spans[i].start != l.spans[j].start {
			return l.spans[i].start < l.spans[j].start
		}
		return l.spans[i].lane < l.spans[j].lane
	})
	for _, sp := range l.spans {
		tr.AddCycleSpan(sp.lane, sp.label, sp.start, sp.end)
	}
	if r == nil || end <= 0 {
		return
	}
	tiles := make([]string, 0, len(r.TileBusy))
	for tile := range r.TileBusy {
		tiles = append(tiles, tile)
	}
	sort.Strings(tiles)
	for _, tile := range tiles {
		busy := r.TileBusy[tile]
		stall := end - busy
		if stall < 0 {
			stall = 0
		}
		tr.AddCycleSpan("tiles", tile, 0, end,
			obs.Int("busyCycles", busy),
			obs.Int("stallCycles", stall),
			obs.Float("utilization", float64(busy)/float64(end)),
		)
	}
}
