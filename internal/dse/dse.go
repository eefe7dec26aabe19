// Package dse implements the automated design-space exploration the paper
// names as future work (Section 7): sweeping platform configurations —
// tile count, interconnect type, communication assist — mapping the
// application onto each with the SDF3 flow, and reporting the guaranteed
// throughput against the FPGA area of the generated platform, including
// the Pareto front of the trade-off.
//
// Because every point is evaluated with the worst-case analysis (seconds)
// rather than synthesis and measurement (hours), the exploration is the
// "very fast design space exploration for real-time embedded systems" the
// template-based architecture enables.
//
// Every feasible point also carries an energy estimate (internal/energy
// folded over the verified analysis), so the front is three-objective:
// maximize throughput, minimize area, minimize energy per iteration.
// With Config.UseSolver the per-point binding comes from the
// branch-and-bound search of internal/solver instead of the greedy
// binder, turning the sweep into a global exploration over bindings ×
// platform configurations.
package dse

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/area"
	"mamps/internal/energy"
	"mamps/internal/mapping"
	"mamps/internal/obs"
	"mamps/internal/platgen"
	"mamps/internal/sdf"
	"mamps/internal/service/cache"
	"mamps/internal/solver"
)

// Point is one evaluated platform configuration.
type Point struct {
	Tiles        int
	Interconnect arch.InterconnectKind
	UseCA        bool

	// Throughput is the guaranteed worst-case throughput of the best
	// mapping found, exact; zero when mapping failed.
	Throughput sdf.Rate
	// Area is the FPGA resource estimate of the generated platform.
	Area area.Estimate
	// Energy is the energy estimate of the mapping at its guaranteed
	// throughput (internal/energy folded over the analysis).
	Energy energy.Report
	// Err records why a configuration was infeasible, if it was.
	Err error

	// Mapping is retained for feasible points.
	Mapping *mapping.Mapping

	// Solver holds the branch-and-bound search statistics when the point
	// was found with Config.UseSolver; nil for greedy points.
	Solver *solver.Stats
}

// Label returns a short identifier for reports.
func (p Point) Label() string {
	ca := ""
	if p.UseCA {
		ca = "+ca"
	}
	return fmt.Sprintf("%dx%s%s", p.Tiles, p.Interconnect, ca)
}

// Config bounds the sweep.
type Config struct {
	// MinTiles and MaxTiles bound the tile-count sweep (defaults 1 and
	// the number of actors).
	MinTiles, MaxTiles int
	// Interconnects to try (default: FSL and NoC).
	Interconnects []arch.InterconnectKind
	// WithCA additionally evaluates every configuration with a
	// communication assist.
	WithCA bool
	// MapOptions applied to every mapping.
	MapOptions mapping.Options

	// UseSolver replaces the greedy binder with the branch-and-bound
	// binding search of internal/solver for every candidate platform:
	// each point then reports the best verified binding on that platform
	// rather than the single greedy one. SolverNodeBudget bounds the
	// per-point search (0: exhaustive); a truncated search still returns
	// the best binding found, flagged in Point.Solver.BudgetExhausted.
	UseSolver        bool
	SolverNodeBudget int64

	// Cache, if set, memoizes the binding-aware throughput analyses of
	// the sweep (see cache.Analyzer), so repeated sweeps (and concurrent
	// sweeps in the mapping service) reuse every point already analyzed
	// instead of re-exploring its state space.
	Cache *cache.Cache

	// Workers bounds the number of configurations evaluated concurrently
	// (default: GOMAXPROCS). Every point is an independent mapping +
	// analysis, so the sweep parallelizes across them; results keep the
	// deterministic enumeration order regardless. With Workers > 1 a
	// custom MapOptions.Analyze must be safe for concurrent use.
	Workers int

	// Obs, if non-nil, records one span per evaluated candidate — on the
	// "dse" track for a sequential sweep, or per-worker "dse-worker-N"
	// tracks for a parallel one — annotated with the candidate label and
	// the resulting throughput or error, and threads the set's explorer
	// and warm-start counters into every point's state-space analyses.
	Obs *obs.Set
}

// Sweep evaluates every configuration in the space.
func Sweep(app *appmodel.App, cfg Config) ([]Point, error) {
	return SweepContext(context.Background(), app, cfg)
}

// SweepContext evaluates every configuration in the space, honouring
// cancellation: the context is checked before each point and threaded
// into the state-space analyses, so even a single long verification
// aborts promptly. On cancellation the prefix of points committed so far
// is returned along with the context's error.
//
// Points are evaluated by a bounded worker pool (Config.Workers): every
// configuration is an independent mapping + analysis, so the sweep scales
// near-linearly with cores, while a single committer emits results in the
// deterministic enumeration order — the output is byte-identical to a
// sequential sweep.
func SweepContext(ctx context.Context, app *appmodel.App, cfg Config) ([]Point, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if cfg.MinTiles <= 0 {
		cfg.MinTiles = 1
	}
	if cfg.MaxTiles <= 0 {
		cfg.MaxTiles = app.Graph.NumActors()
	}
	if cfg.MaxTiles < cfg.MinTiles {
		return nil, fmt.Errorf("dse: empty tile range %d..%d", cfg.MinTiles, cfg.MaxTiles)
	}
	ics := cfg.Interconnects
	if len(ics) == 0 {
		ics = []arch.InterconnectKind{arch.FSL, arch.NoC}
	}
	caModes := []bool{false}
	if cfg.WithCA {
		caModes = []bool{false, true}
	}
	mo := cfg.MapOptions
	if mo.Analyze == nil {
		// Route every point's throughput verification through the shared
		// cache (or, without one, just make it cancellable). The trace
		// stays out: parallel workers' analyses would overlap on one
		// "statespace" track.
		tel := &obs.Set{Explorer: cfg.Obs.ExplorerOf(), Warm: cfg.Obs.WarmOf(), Record: cfg.Obs.RecordOf()}
		mo.Analyze = cache.Analyzer(cfg.Cache, ctx, tel)
	}

	// Enumerate the candidate configurations up front; their order is the
	// result order.
	type cand struct {
		tiles int
		ic    arch.InterconnectKind
		ca    bool
	}
	var cands []cand
	for tiles := cfg.MinTiles; tiles <= cfg.MaxTiles; tiles++ {
		for _, ic := range ics {
			if ic == arch.NoC && tiles < 2 {
				continue // a NoC needs at least two routers to be meaningful
			}
			for _, ca := range caModes {
				cands = append(cands, cand{tiles: tiles, ic: ic, ca: ca})
			}
		}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers < 1 {
		workers = 1
	}

	env := evalEnv{
		ctx:        ctx,
		app:        app,
		mo:         mo,
		useSolver:  cfg.UseSolver,
		nodeBudget: cfg.SolverNodeBudget,
		set:        cfg.Obs,
	}

	// Single worker: evaluate inline, with no pool overhead (this is also
	// the reference behavior the parallel path must reproduce exactly).
	if workers == 1 {
		scope := cfg.Obs.TraceOf().Scope("dse")
		points := make([]Point, 0, len(cands))
		for _, c := range cands {
			if err := ctx.Err(); err != nil {
				return points, fmt.Errorf("dse: sweep cancelled at %d tiles: %w", c.tiles, err)
			}
			points = append(points, env.evaluateTraced(scope, c.tiles, c.ic, c.ca))
		}
		return points, nil
	}

	// Workers claim candidate indices from a shared counter and publish
	// into a fixed slot, so results carry no ordering dependence on worker
	// scheduling. A worker that observes cancellation at claim time marks
	// the slot skipped instead of evaluating.
	results := make([]Point, len(cands))
	skipped := make([]bool, len(cands))
	done := make([]chan struct{}, len(cands))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker records onto its own track, so span buffers stay
			// uncontended and the exported trace shows per-worker lanes
			// (and with them the pool's utilization over the sweep).
			scope := cfg.Obs.TraceOf().Scope(fmt.Sprintf("dse-worker-%d", w))
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cands) {
					return
				}
				if ctx.Err() != nil {
					skipped[i] = true
					close(done[i])
					continue
				}
				c := cands[i]
				results[i] = env.evaluateTraced(scope, c.tiles, c.ic, c.ca)
				close(done[i])
			}
		}(w)
	}
	defer wg.Wait()

	// Commit in enumeration order. A point whose evaluation had started
	// before cancellation is still committed (matching the sequential
	// semantics: the point during which the context died completes);
	// everything after the first cancellation-observed slot is discarded.
	points := make([]Point, 0, len(cands))
	for i := range cands {
		<-done[i]
		if skipped[i] {
			return points, fmt.Errorf("dse: sweep cancelled at %d tiles: %w", cands[i].tiles, ctx.Err())
		}
		points = append(points, results[i])
		if err := ctx.Err(); err != nil && i+1 < len(cands) {
			return points, fmt.Errorf("dse: sweep cancelled at %d tiles: %w", cands[i+1].tiles, err)
		}
	}
	return points, nil
}

// evalEnv carries the per-sweep evaluation context shared by all
// workers.
type evalEnv struct {
	ctx        context.Context
	app        *appmodel.App
	mo         mapping.Options
	useSolver  bool
	nodeBudget int64
	set        *obs.Set
}

// evaluateTraced wraps evaluate in a span on the given scope (nil scope:
// no overhead beyond the call), annotated with the candidate label and
// its outcome.
func (env evalEnv) evaluateTraced(scope *obs.Scope, tiles int, ic arch.InterconnectKind, ca bool) Point {
	if scope == nil {
		return env.evaluate(tiles, ic, ca)
	}
	span := scope.Begin("evaluate")
	pt := env.evaluate(tiles, ic, ca)
	span.SetAttrs(
		obs.String("candidate", pt.Label()),
		obs.Float("throughput", pt.Throughput.Float()),
	)
	if pt.Err != nil {
		span.SetAttrs(obs.String("error", pt.Err.Error()))
	}
	span.End()
	return pt
}

func (env evalEnv) evaluate(tiles int, ic arch.InterconnectKind, ca bool) Point {
	pt := Point{Tiles: tiles, Interconnect: ic, UseCA: ca}
	plat, err := arch.DefaultTemplate().Generate(fmt.Sprintf("%s_%d%s", env.app.Name, tiles, ic), tiles, ic)
	if err != nil {
		pt.Err = err
		return pt
	}
	if ca {
		for _, t := range plat.Tiles {
			t.HasCA = true
		}
	}
	mo := env.mo
	mo.UseCA = ca

	var m *mapping.Mapping
	if env.useSolver {
		res, err := solver.Solve(env.ctx, env.app, plat, solver.Options{
			NodeBudget: env.nodeBudget,
			MapOptions: mo,
			Obs:        env.set,
		})
		if err != nil {
			pt.Err = err
			return pt
		}
		if res.Best == nil {
			pt.Err = fmt.Errorf("dse: solver found no feasible binding on %d tiles", tiles)
			return pt
		}
		m = res.Best.Mapping
		pt.Energy = res.Best.Energy
		pt.Solver = &res.Stats
	} else {
		m, err = mapping.Map(env.app, plat, mo)
		if err != nil {
			pt.Err = err
			return pt
		}
		pt.Energy, err = energy.DefaultModel().OfMapping(m)
		if err != nil {
			pt.Err = err
			return pt
		}
	}
	pt.Mapping = m
	pt.Throughput = m.Analysis.Throughput
	proj, err := platgen.Generate(m)
	if err != nil {
		pt.Err = err
		return pt
	}
	pt.Area = proj.Summary.Area
	return pt
}

// ParetoFront returns the feasible points that are Pareto-optimal over
// three objectives — maximize throughput, minimize slices, minimize
// energy per iteration — sorted by ascending area (throughput, then
// energy, breaking ties). A point is dropped exactly when another
// dominates it, so equal points are all kept. Throughputs compare
// exactly.
func ParetoFront(points []Point) []Point {
	feasible := make([]Point, 0, len(points))
	for _, p := range points {
		if p.Err == nil && !p.Throughput.IsZero() {
			feasible = append(feasible, p)
		}
	}
	sort.SliceStable(feasible, func(i, j int) bool {
		a, b := feasible[i], feasible[j]
		if a.Area.Slices != b.Area.Slices {
			return a.Area.Slices < b.Area.Slices
		}
		if c := a.Throughput.Cmp(b.Throughput); c != 0 {
			return c > 0
		}
		return a.Energy.TotalPJ < b.Energy.TotalPJ
	})
	var front []Point
	for _, p := range feasible {
		if !slices.ContainsFunc(feasible, func(o Point) bool { return dominates(o, p) }) {
			front = append(front, p)
		}
	}
	return front
}

// dominates reports whether a is at least as good as b in every
// objective of ParetoFront and strictly better in at least one.
func dominates(a, b Point) bool {
	thr := a.Throughput.Cmp(b.Throughput)
	if thr < 0 || a.Area.Slices > b.Area.Slices || a.Energy.TotalPJ > b.Energy.TotalPJ {
		return false
	}
	return thr > 0 || a.Area.Slices < b.Area.Slices || a.Energy.TotalPJ < b.Energy.TotalPJ
}

// Best returns the cheapest feasible point meeting the throughput target
// (compared exactly), or an error if none does.
func Best(points []Point, target float64) (Point, error) {
	var best *Point
	for i := range points {
		p := &points[i]
		if p.Err != nil || !p.Throughput.Meets(target) {
			continue
		}
		if best == nil || p.Area.Slices < best.Area.Slices {
			best = p
		}
	}
	if best == nil {
		return Point{}, fmt.Errorf("dse: no configuration reaches throughput %g", target)
	}
	return *best, nil
}
