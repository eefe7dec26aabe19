// Package corpus is the reproducible example-graph corpus behind `make
// regress`: a fixed set of small analysis graphs plus the full MJPEG
// flow on both interconnects, each replayed deterministically and
// summarized as a runlog.Record keyed by corpus entry name
// ("corpus/<name>").
//
// The records carry only deterministic quantities the kernels guarantee
// bit-identical run to run — throughput bound, measured throughput,
// simulated cycles, states explored, simulator steps — so the regression
// gate compares them against checked-in baselines with zero tolerance.
// Baseline matching is by entry name, not graph key: a perturbed WCET
// changes the canonical graph key and is itself reported as drift
// ("graph key changed") instead of silently missing the baseline.
package corpus

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/energy"
	"mamps/internal/flow"
	"mamps/internal/mjpeg"
	"mamps/internal/obs"
	"mamps/internal/obs/diag"
	"mamps/internal/runlog"
	"mamps/internal/sdf"
	"mamps/internal/service/cache"
	"mamps/internal/solver"
	"mamps/internal/statespace"
)

// Options configures a corpus replay.
type Options struct {
	// PerturbWCET adds the given number of cycles to one actor's
	// execution time in every entry — a deliberate drift used to verify
	// the regression gate actually fires. Zero replays faithfully.
	PerturbWCET int64
	// PerturbEnergy adds the given number of picojoules to the energy
	// model's per-cycle PE constant in the solver entry — a deliberate
	// drift proving the gate catches silent recalibrations, which change
	// no graph key and no throughput, only the energy estimate.
	PerturbEnergy float64
	// Quick skips the expensive flow entries (the MJPEG executions),
	// keeping only the small analysis graphs.
	Quick bool
}

// Entry is one reproducible corpus run.
type Entry struct {
	// Name keys the entry's baseline ("corpus/<name>").
	Name string
	// Kind is "analysis" or "flow".
	Kind string
	// Run replays the entry and returns its record (ID/Seq/Time unset;
	// the registry assigns them on Append) plus any artifacts to store
	// with it (e.g. the deadlock entry's diagnostic bundle). Artifact
	// bytes must be as deterministic as the record.
	Run func(opt Options) (runlog.Record, []runlog.Artifact, error)
}

// Result pairs one replayed entry's record with its artifacts.
type Result struct {
	Record    runlog.Record
	Artifacts []runlog.Artifact
}

// Entries returns the corpus in a fixed order.
func Entries() []Entry {
	return []Entry{
		analysisEntry("cycle", func() (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("cycle")
			a := g.AddActor("a", 2)
			b := g.AddActor("b", 3)
			g.Connect(a, b, 1, 1, 0)
			g.Connect(b, a, 1, 1, 1)
			return g, statespace.Options{}
		}),
		analysisEntry("pipe", func() (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("pipe")
			a := g.AddActor("a", 2)
			b := g.AddActor("b", 3)
			g.Connect(a, b, 1, 1, 0)
			g.Connect(b, a, 1, 1, 2)
			return g, statespace.Options{}
		}),
		analysisEntry("mr", func() (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("mr")
			a := g.AddActor("a", 2)
			b := g.AddActor("b", 3)
			a.MaxConcurrent = 1
			b.MaxConcurrent = 1
			g.Connect(a, b, 2, 1, 0)
			g.Connect(b, a, 1, 2, 2)
			return g, statespace.Options{}
		}),
		analysisEntry("sched", func() (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("sched")
			a := g.AddActor("a", 2)
			b := g.AddActor("b", 3)
			g.Connect(a, b, 1, 1, 1)
			g.Connect(b, a, 1, 1, 1)
			return g, statespace.Options{
				Schedules: []statespace.Schedule{{Tile: "t0", Entries: []sdf.ActorID{a.ID, b.ID}}},
			}
		}),
		mjpegEntry("mjpeg-fsl", arch.FSL),
		mjpegEntry("mjpeg-noc", arch.NoC),
		solverEntry("mjpeg-solver"),
		warmEntry("warmstart"),
		deadlockEntry("deadlock"),
	}
}

// Run replays the selected corpus entries in order, stopping at the
// first entry that fails to execute (a failing entry is a broken build,
// not a regression).
func Run(opt Options) ([]Result, error) {
	var out []Result
	for _, e := range Entries() {
		if opt.Quick && e.Kind == "flow" {
			continue
		}
		rec, arts, err := e.Run(opt)
		if err != nil {
			return out, fmt.Errorf("corpus %s: %w", e.Name, err)
		}
		out = append(out, Result{Record: rec, Artifacts: arts})
	}
	return out, nil
}

// perturbGraph adds delta cycles to the execution time of the graph's
// first actor.
func perturbGraph(g *sdf.Graph, delta int64) {
	if delta == 0 {
		return
	}
	g.Actors()[0].ExecTime += delta
}

// perturbApp perturbs an application model: the first actor's graph
// execution time and the WCETs of all its implementations move together,
// so both the canonical graph key and the analyzed bound drift.
func perturbApp(app *appmodel.App, delta int64) {
	if delta == 0 {
		return
	}
	a := app.Graph.Actors()[0]
	a.ExecTime += delta
	impls := app.Impls[a.ID]
	for i := range impls {
		impls[i].WCET += delta
	}
}

func analysisEntry(name string, build func() (*sdf.Graph, statespace.Options)) Entry {
	return Entry{Name: name, Kind: "analysis", Run: func(opt Options) (runlog.Record, []runlog.Artifact, error) {
		g, sopt := build()
		perturbGraph(g, opt.PerturbWCET)
		stats := obs.NewExplorerStats(nil)
		sopt.Telemetry = stats
		key := cache.GraphKey(g)
		r, err := statespace.Analyze(g, sopt)
		if err != nil {
			return runlog.Record{}, nil, err
		}
		rec := runlog.Record{
			Kind:     "analysis",
			App:      name,
			Corpus:   name,
			GraphKey: key,
			Outcome:  "ok",
			Bound:    r.Throughput.Float(),
			Counters: runlog.CountersFrom(&obs.Set{Explorer: stats}),
		}
		if r.Deadlocked {
			rec.Outcome = "deadlock"
		}
		return rec, nil, nil
	}}
}

// mjpegEntry replays the full flow — map, verify, generate, execute,
// re-analyze — on the MJPEG decoder (32x32 gradient, 2 frames) over 5
// tiles, the configuration the statespace and simulator goldens pin.
func mjpegEntry(name string, ic arch.InterconnectKind) Entry {
	return Entry{Name: name, Kind: "flow", Run: func(opt Options) (runlog.Record, []runlog.Artifact, error) {
		stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 32, 32, 2, 90, mjpeg.Sampling420)
		if err != nil {
			return runlog.Record{}, nil, err
		}
		app, actors, err := mjpeg.BuildApp(stream)
		if err != nil {
			return runlog.Record{}, nil, err
		}
		perturbApp(app, opt.PerturbWCET)
		si := actors.VLD.Info()
		iters := si.MCUsPerFrame() * si.Frames

		ctx := context.Background()
		set := &obs.Set{Explorer: obs.NewExplorerStats(nil), Sim: obs.NewSimStats(nil)}
		cfg := flow.Config{
			App:          app,
			Tiles:        5,
			Interconnect: ic,
			Iterations:   iters,
			RefActor:     "Raster",
			Scenario:     "corpus",
			Obs:          set,
		}
		key := cache.GraphKey(app.Graph)
		res, err := flow.RunContext(ctx, cfg)
		if err != nil {
			return runlog.Record{}, nil, err
		}
		rec := runlog.Record{
			Kind:     "flow",
			App:      app.Name,
			Corpus:   name,
			GraphKey: key,
			Outcome:  "ok",
			Bound:    res.WorstCase,
			Measured: res.Measured,
			Expected: res.Expected,
			Config: runlog.ConfigSummary{
				Tiles: 5, Interconnect: ic.String(),
				Iterations: iters, RefActor: "Raster",
			},
			Counters: runlog.CountersFrom(set),
		}
		if res.Sim != nil {
			rec.Cycles = res.Sim.Cycles
		}
		for _, st := range res.Steps {
			rec.Steps = append(rec.Steps, runlog.StageTime{
				Name: st.Name, Automated: st.Automated,
				Micros: float64(st.Elapsed.Microseconds()),
			})
		}
		return rec, nil, nil
	}}
}

// solverEntry runs the branch-and-bound binding search on the MJPEG
// decoder over 3 FSL tiles with a node budget, recording the verified
// best throughput, its energy estimate and the search counters — all
// deterministic, so the gate pins the solver's traversal and the energy
// model's calibration bit-for-bit.
func solverEntry(name string) Entry {
	return Entry{Name: name, Kind: "flow", Run: func(opt Options) (runlog.Record, []runlog.Artifact, error) {
		stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 32, 32, 2, 90, mjpeg.Sampling420)
		if err != nil {
			return runlog.Record{}, nil, err
		}
		app, _, err := mjpeg.BuildApp(stream)
		if err != nil {
			return runlog.Record{}, nil, err
		}
		perturbApp(app, opt.PerturbWCET)
		plat, err := arch.DefaultTemplate().Generate("mjpeg_solver_3fsl", 3, arch.FSL)
		if err != nil {
			return runlog.Record{}, nil, err
		}

		ctx := context.Background()
		set := &obs.Set{Explorer: obs.NewExplorerStats(nil), Solver: obs.NewSolverStats(nil)}
		mod := energy.DefaultModel()
		mod.PEDynamicPJPerCycle += opt.PerturbEnergy
		sopt := solver.Options{NodeBudget: 512, Energy: &mod, Obs: set}
		sopt.MapOptions.Analyze = cache.Analyzer(nil, ctx, set)

		key := cache.GraphKey(app.Graph)
		res, err := solver.Solve(ctx, app, plat, sopt)
		if err != nil {
			return runlog.Record{}, nil, err
		}
		if res.Best == nil {
			return runlog.Record{}, nil, fmt.Errorf("solver found no feasible binding")
		}
		return runlog.Record{
			Kind:     "dse",
			App:      app.Name,
			Corpus:   name,
			GraphKey: key,
			Outcome:  "ok",
			Bound:    res.Best.Throughput.Float(),
			EnergyPJ: res.Best.Energy.TotalPJ,
			AvgWatts: res.Best.Energy.AvgWatts,
			Config: runlog.ConfigSummary{
				Tiles: 3, Interconnect: arch.FSL.String(),
			},
			Counters: runlog.CountersFrom(set),
		}, nil, nil
	}}
}

// warmEntry replays a fixed request sequence through a private analysis
// memo and pins its reuse decisions: a cold miss, an exact repeat, and
// three misses (a uniformly scaled variant, a single-WCET delta and a
// rescaled deadlock). Every warm result is compared bit for bit
// against a cold analysis of the same request — a divergence is unsound
// reuse and fails the entry outright (an explicit error, not just counter
// drift), while a silently changed reuse decision shows up as warm-counter
// drift against the checked-in baseline.
func warmEntry(name string) Entry {
	return Entry{Name: name, Kind: "analysis", Run: func(opt Options) (runlog.Record, []runlog.Artifact, error) {
		build := func(w0, w1, w2 int64, tokens int) (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("warmpipe")
			a := g.AddActor("a", w0)
			b := g.AddActor("b", w1)
			c := g.AddActor("c", w2)
			g.Connect(a, b, 1, 1, 0)
			g.Connect(b, c, 1, 1, 0)
			g.Connect(c, a, 1, 1, tokens)
			perturbGraph(g, opt.PerturbWCET)
			return g, statespace.Options{}
		}
		deadlock := func(w int64) (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("warmdead")
			a := g.AddActor("a", w)
			b := g.AddActor("b", w)
			g.Connect(a, b, 1, 1, 0)
			g.Connect(b, a, 1, 1, 0)
			perturbGraph(g, opt.PerturbWCET)
			return g, statespace.Options{}
		}
		stats := obs.NewWarmStats(nil)
		analyze := cache.Analyzer(cache.New(16), context.Background(), &obs.Set{Warm: stats})
		requests := []func() (*sdf.Graph, statespace.Options){
			func() (*sdf.Graph, statespace.Options) { return build(3, 5, 2, 4) },  // cold miss
			func() (*sdf.Graph, statespace.Options) { return build(3, 5, 2, 4) },  // exact hit
			func() (*sdf.Graph, statespace.Options) { return build(9, 15, 6, 4) }, // miss (uniform ×3 rescale)
			func() (*sdf.Graph, statespace.Options) { return build(3, 5, 7, 4) },  // miss (unrelated WCETs)
			func() (*sdf.Graph, statespace.Options) { return deadlock(1) },        // cold deadlock
			func() (*sdf.Graph, statespace.Options) { return deadlock(2) },        // miss (rescaled deadlock)
		}
		var bound float64
		for i, req := range requests {
			wg, wopt := req()
			got, err := analyze(wg, wopt)
			if err != nil {
				return runlog.Record{}, nil, fmt.Errorf("warm request %d: %w", i, err)
			}
			cg, copt := req()
			want, err := statespace.Analyze(cg, copt)
			if err != nil {
				return runlog.Record{}, nil, fmt.Errorf("cold request %d: %w", i, err)
			}
			if !reflect.DeepEqual(got, want) {
				return runlog.Record{}, nil, fmt.Errorf(
					"warm-start reuse is UNSOUND: request %d warm result %+v != cold result %+v", i, got, want)
			}
			if i == 0 {
				bound = got.Throughput.Float()
			}
		}
		return runlog.Record{
			Kind:     "analysis",
			App:      name,
			Corpus:   name,
			GraphKey: cache.GraphKey(func() *sdf.Graph { g, _ := build(3, 5, 2, 4); return g }()),
			Outcome:  "ok",
			Bound:    bound,
			Counters: runlog.CountersFrom(&obs.Set{Warm: stats}),
		}, nil, nil
	}}
}

// deadlockEntry analyzes a two-actor cycle with no initial tokens —
// guaranteed deadlock — and captures a flight-recorder diagnostic
// bundle of the event, stored as the run's "diag.json" artifact. The
// recorder runs on a synthetic counter clock and the capture skips
// profiles, so the bundle bytes are a pure function of the corpus:
// `make ledger-smoke`'s byte-compare of two deterministic replays
// covers the bundle's blob digest, and TestDeadlockBundleDeterministic
// compares the bundles themselves.
func deadlockEntry(name string) Entry {
	return Entry{Name: name, Kind: "analysis", Run: func(opt Options) (runlog.Record, []runlog.Artifact, error) {
		g := sdf.NewGraph("diagdead")
		a := g.AddActor("a", 2)
		b := g.AddActor("b", 3)
		g.Connect(a, b, 1, 1, 0)
		g.Connect(b, a, 1, 1, 0)
		perturbGraph(g, opt.PerturbWCET)

		// A deterministic flight recorder: event times are a counter, not
		// a wall clock.
		var tick int64
		now := func() int64 { tick++; return tick }
		rec := diag.NewRecorder(64, diag.WithNow(now))
		rec.Record(diag.KindEvent, "corpus/"+name, "analyze start")

		stats := obs.NewExplorerStats(nil)
		key := cache.GraphKey(g)
		r, err := statespace.Analyze(g, statespace.Options{Telemetry: stats})
		if err != nil {
			return runlog.Record{}, nil, err
		}
		if !r.Deadlocked {
			return runlog.Record{}, nil, fmt.Errorf("deadlock entry did not deadlock")
		}
		report := r.DeadlockReport
		if report == "" {
			// The unscheduled analysis path detects the deadlock as a
			// recurrent state with zero firings and has no per-tile
			// blocking report; synthesize a deterministic one.
			report = fmt.Sprintf("deadlock: no actor can fire after %d state(s)", r.StatesExplored)
		}
		rec.Record(diag.KindEvent, "deadlock",
			fmt.Sprintf("states=%d", r.StatesExplored))

		bundle, _ := diag.Capture(diag.CaptureOptions{
			Reason:   "deadlock",
			NowNS:    tick,
			Recorder: rec,
			Counters: map[string]int64{
				"statesExplored": int64(r.StatesExplored),
				"deadlocks":      1,
			},
			Deadlock: report,
		})
		data, err := bundle.Marshal()
		if err != nil {
			return runlog.Record{}, nil, err
		}

		record := runlog.Record{
			Kind:     "analysis",
			App:      name,
			Corpus:   name,
			GraphKey: key,
			Outcome:  "deadlock",
			Error:    report,
			Counters: runlog.CountersFrom(&obs.Set{Explorer: stats}),
		}
		return record, []runlog.Artifact{{Name: "diag.json", Data: data}}, nil
	}}
}

// Strip removes the nondeterministic parts of a record — identity,
// timestamps, per-stage wall times, stored artifacts, the regression
// verdict, trace-context IDs, attached profile digests and the ledger
// chain fields — leaving exactly what a checked-in baseline should pin.
func Strip(rec runlog.Record) runlog.Record {
	rec.ID = ""
	rec.Seq = 0
	rec.Time = time.Time{}
	rec.Steps = nil
	rec.Artifacts = nil
	rec.ArtifactBlobs = nil
	rec.Regression = nil
	rec.TraceID = ""
	rec.SpanID = ""
	rec.Profiles = nil
	rec.Format = 0
	rec.PrevHash = ""
	rec.RecordHash = ""
	return rec
}
