// Package solver implements a global mapping search over actor→tile
// bindings: a deterministic pure-Go branch-and-bound that finds the
// binding with the best guaranteed throughput, instead of the single
// greedy cost-driven binding of package mapping.
//
// The formulation follows the IDeSyDe MiniZinc SDF job-scheduling model
// (wcet matrix over actors × processors, token communication delays,
// throughput objective), recast as an explicit tree search so it runs
// without an external constraint solver:
//
//   - variables: one tile index per actor, assigned in heaviest-first
//     order (the same order the greedy binder uses, so the first
//     descent reproduces a greedy-quality incumbent early);
//   - bound: at every node an admissible lower bound on the iteration
//     period — the maximum over per-tile WCET load (including the
//     PE-side token (de)serialization cycles of channels already known
//     to cross tiles), the minimum feasible work of each unassigned
//     actor, the total work spread over all usable tiles, and the
//     word-rate occupancy of each crossing channel's connection. Its
//     reciprocal is an upper bound on throughput: any subtree whose
//     bound cannot beat the incumbent is pruned;
//   - verification: every surviving leaf is verified with the existing
//     binding-aware state-space analysis (mapping.Map with a fixed
//     binding, routed through whatever Analyze hook the caller injects,
//     e.g. the content-addressed cache), so every reported throughput
//     is the same guaranteed bound the rest of the flow computes. The
//     per-tile static schedule orders are derived per candidate binding
//     by the existing token-driven scheduler.
//
// Identical slave tiles are symmetry-broken: among empty interchangeable
// tiles only the lowest index is branched on, which cuts the k-th
// actor's branching factor without losing any distinct mapping. The
// search is deterministic — same inputs, same traversal, bit-identical
// results — honours a node budget and context cancellation, and reports
// nodes expanded/pruned, incumbent updates and verifications through
// internal/obs counters and a span.
package solver

import (
	"context"
	"fmt"
	"sort"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/comm"
	"mamps/internal/energy"
	"mamps/internal/mapping"
	"mamps/internal/obs"
	"mamps/internal/sdf"
)

// Options configures a solve.
type Options struct {
	// NodeBudget bounds the number of search-tree nodes expanded; 0
	// means unlimited. When the budget runs out the best result found so
	// far is returned with Stats.BudgetExhausted set.
	NodeBudget int64
	// MapOptions are applied to every candidate verification (Analyze
	// hook, UseCA, buffer sizing, disabled tiles). FixedBinding
	// must be empty: the solver owns the binding.
	MapOptions mapping.Options
	// Energy calibrates the per-candidate energy report; nil selects
	// energy.DefaultModel.
	Energy *energy.Model
	// Obs, if non-nil, receives solver counters (Set.Solver) and one
	// span on the "solver" track.
	Obs *obs.Set
}

// Candidate is one verified binding.
type Candidate struct {
	// TileOf assigns every actor (by ID) to a tile index; Binding is the
	// same assignment keyed by actor name (the mapping.Options
	// FixedBinding form).
	TileOf  []int
	Binding map[string]int
	// Throughput is the verified worst-case throughput of the binding;
	// Energy its energy report at that throughput.
	Throughput sdf.Rate
	Energy     energy.Report
	// Mapping is the full verified mapping.
	Mapping *mapping.Mapping
}

// Stats summarizes the search.
type Stats struct {
	// NodesExpanded counts tree nodes whose children were generated;
	// NodesPruned counts subtrees cut by the admissible bound (including
	// infeasible dead ends). Exhaustive enumeration would expand one
	// node per partial assignment, so the pruning ratio
	// NodesPruned/(NodesExpanded+NodesPruned) measures the bound's
	// leverage.
	NodesExpanded int64 `json:"nodesExpanded"`
	NodesPruned   int64 `json:"nodesPruned"`
	// Incumbents counts improvements of the best verified binding;
	// Verifications the binding-aware analyses run.
	Incumbents    int64 `json:"incumbents"`
	Verifications int64 `json:"verifications"`
	// BudgetExhausted reports that the node budget ran out before the
	// search space was exhausted: the result is the best found, not
	// proven optimal.
	BudgetExhausted bool `json:"budgetExhausted,omitempty"`
}

// Result is the outcome of a solve.
type Result struct {
	// Best is the best verified binding: the first one found in
	// deterministic search order among ties. Nil when no feasible
	// binding exists.
	Best *Candidate
	// Stats summarizes the search effort.
	Stats Stats
}

// search carries the solve's working state.
type search struct {
	app  *appmodel.App
	plat *arch.Platform
	opt  Options
	mod  energy.Model
	q    []int64

	order []*sdf.Actor // assignment order, heaviest first
	depth map[sdf.ActorID]int

	// Static per-actor data, indexed by position in order.
	feasible [][]int   // statically feasible tiles (impl, peripherals, disabled)
	wcet     [][]int64 // wcet[pos][tile] * q, -1 when infeasible
	minWork  []int64   // min over feasible tiles of wcet*q
	sumMin   []int64   // suffix sum of minWork from position i on

	tileSig []string // symmetry class of each tile

	// Channel data for the load and rate bounds.
	chans []chanInfo

	// Mutable assignment state.
	tileOf   []int
	load     []int64 // per-tile assigned work (firings + ser/deser)
	memUse   []int
	occupied []int // actors per tile (for IP tiles)
	usable   int   // non-disabled tiles

	best    *Candidate
	stats   Stats
	solStat *obs.SolverStats

	budgetHit bool
	ctx       context.Context
}

type chanInfo struct {
	c          *sdf.Channel
	iterTokens int64
	words      int64
	serCycles  int64 // PE cycles to serialize one token
	rateCycles int64 // connection occupancy per iteration (words × ≥1 cycle/word)
}

// Solve runs the branch-and-bound over actor→tile bindings of app onto
// plat. A nil error with a nil Result.Best means no feasible binding
// exists. Cancellation returns the partial result alongside the
// context's error.
func Solve(ctx context.Context, app *appmodel.App, plat *arch.Platform, opt Options) (*Result, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if len(opt.MapOptions.FixedBinding) != 0 {
		return nil, fmt.Errorf("solver: MapOptions.FixedBinding must be empty (the solver owns the binding)")
	}
	q, err := app.Graph.RepetitionVector()
	if err != nil {
		return nil, err
	}
	mod := energy.DefaultModel()
	if opt.Energy != nil {
		mod = *opt.Energy
	}

	s := &search{app: app, plat: plat, opt: opt, mod: mod, q: q, ctx: ctx}
	s.solStat = opt.Obs.SolverOf()
	if s.solStat == nil {
		s.solStat = obs.NewSolverStats(nil) // discard: bare counters, no registry
	}
	if err := s.prepare(); err != nil {
		return nil, err
	}

	span := opt.Obs.TraceOf().Scope("solver").Begin("solve",
		obs.String("app", app.Name),
		obs.Int("tiles", int64(len(plat.Tiles))))
	defer func() {
		span.SetAttrs(
			obs.Int("nodesExpanded", s.stats.NodesExpanded),
			obs.Int("nodesPruned", s.stats.NodesPruned),
			obs.Int("verifications", s.stats.Verifications))
		span.End()
	}()

	// Seed the incumbent with the greedy cost-driven binding: a strong
	// first bound that guarantees the solver never returns worse than
	// the existing flow, and prunes most of the tree up front.
	if m, err := mapping.Map(app, plat, opt.MapOptions); err == nil && !m.Analysis.Throughput.IsZero() {
		s.stats.Verifications++
		s.solStat.Verifications.Add(1)
		s.admit(m)
	}

	err = s.dfs(0)
	s.stats.BudgetExhausted = s.budgetHit
	return &Result{Best: s.best, Stats: s.stats}, err
}

// prepare computes the static search tables.
func (s *search) prepare() error {
	g := s.app.Graph
	p := s.plat
	nTiles := len(p.Tiles)

	disabled := make([]bool, nTiles)
	for _, t := range s.opt.MapOptions.DisabledTiles {
		if t < 0 || t >= nTiles {
			return fmt.Errorf("solver: disabled tile %d out of range", t)
		}
		disabled[t] = true
	}
	for _, d := range disabled {
		if !d {
			s.usable++
		}
	}
	if s.usable == 0 {
		return fmt.Errorf("solver: all tiles disabled")
	}

	// Heaviest first, exactly as the greedy binder orders its actors, so
	// the leftmost descent is greedy-shaped and the incumbent improves
	// early.
	s.order = make([]*sdf.Actor, len(g.Actors()))
	copy(s.order, g.Actors())
	sort.SliceStable(s.order, func(i, j int) bool {
		return s.maxWeight(s.order[i]) > s.maxWeight(s.order[j])
	})
	s.depth = make(map[sdf.ActorID]int, len(s.order))
	for i, a := range s.order {
		s.depth[a.ID] = i
	}

	s.feasible = make([][]int, len(s.order))
	s.wcet = make([][]int64, len(s.order))
	s.minWork = make([]int64, len(s.order))
	for i, a := range s.order {
		s.wcet[i] = make([]int64, nTiles)
		s.minWork[i] = -1
		for t, tile := range p.Tiles {
			s.wcet[i][t] = -1
			if disabled[t] {
				continue
			}
			im := s.app.ImplFor(a.ID, tile.PE)
			if im == nil {
				continue
			}
			if im.NeedsPeripherals && tile.Kind != arch.MasterTile {
				continue
			}
			w := im.WCET * s.q[a.ID]
			s.feasible[i] = append(s.feasible[i], t)
			s.wcet[i][t] = w
			if s.minWork[i] < 0 || w < s.minWork[i] {
				s.minWork[i] = w
			}
		}
		if len(s.feasible[i]) == 0 {
			return fmt.Errorf("solver: no feasible tile for actor %q (PE type, peripherals or disabled tiles)", a.Name)
		}
	}
	s.sumMin = make([]int64, len(s.order)+1)
	for i := len(s.order) - 1; i >= 0; i-- {
		s.sumMin[i] = s.sumMin[i+1] + s.minWork[i]
	}

	// Symmetry classes: tiles interchangeable for any assignment. On a
	// NoC the mesh position changes hop counts, so no two tiles are
	// interchangeable and every tile gets its own class.
	s.tileSig = make([]string, nTiles)
	for t, tile := range p.Tiles {
		if p.Interconnect.Kind == arch.NoC {
			s.tileSig[t] = fmt.Sprintf("pos%d", t)
			continue
		}
		s.tileSig[t] = fmt.Sprintf("%v|%v|%d|%d|%v|%d",
			tile.Kind, tile.PE, tile.InstrMem, tile.DataMem, tile.HasCA, len(tile.Peripherals))
	}

	for _, c := range g.Channels() {
		if c.IsSelfLoop() {
			continue
		}
		words := int64(c.Words())
		s.chans = append(s.chans, chanInfo{
			c:          c,
			iterTokens: g.IterationTokens(c, s.q),
			words:      words,
			serCycles:  comm.PESerFixed + words*comm.PESerPerWord,
			rateCycles: g.IterationTokens(c, s.q) * words, // ≥1 cycle per word on any connection
		})
	}

	s.tileOf = make([]int, g.NumActors())
	for i := range s.tileOf {
		s.tileOf[i] = -1
	}
	s.load = make([]int64, nTiles)
	s.memUse = make([]int, nTiles)
	s.occupied = make([]int, nTiles)
	return nil
}

func (s *search) maxWeight(a *sdf.Actor) int64 {
	var w int64
	for _, im := range s.app.Impls[a.ID] {
		if v := im.WCET * s.q[a.ID]; v > w {
			w = v
		}
	}
	return w
}

// dfs assigns the actor at position pos to every viable tile. Returns
// the context error on cancellation; the partial result stands.
func (s *search) dfs(pos int) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if s.budgetHit {
		return nil
	}
	if pos == len(s.order) {
		s.verifyLeaf()
		return nil
	}
	if s.opt.NodeBudget > 0 && s.stats.NodesExpanded >= s.opt.NodeBudget {
		s.budgetHit = true
		return nil
	}
	s.stats.NodesExpanded++
	s.solStat.NodesExpanded.Add(1)

	a := s.order[pos]
	seenEmpty := make(map[string]bool)
	for _, t := range s.feasible[pos] {
		tile := s.plat.Tiles[t]
		if tile.Kind == arch.IPTile && s.occupied[t] > 0 {
			continue
		}
		im := s.app.ImplFor(a.ID, tile.PE)
		if s.memUse[t]+im.InstrMem+im.DataMem > tile.InstrMem+tile.DataMem {
			continue
		}
		// Symmetry breaking: among still-empty interchangeable tiles,
		// branch only on the first — the others reach isomorphic
		// mappings.
		if s.occupied[t] == 0 {
			if seenEmpty[s.tileSig[t]] {
				continue
			}
			seenEmpty[s.tileSig[t]] = true
		}

		s.assign(a, pos, t, im)
		if s.prune(pos + 1) {
			s.stats.NodesPruned++
			s.solStat.NodesPruned.Add(1)
		} else if err := s.dfs(pos + 1); err != nil {
			s.unassign(a, pos, t, im)
			return err
		}
		s.unassign(a, pos, t, im)
	}
	return nil
}

func (s *search) assign(a *sdf.Actor, pos, t int, im *appmodel.Impl) {
	s.tileOf[a.ID] = t
	s.occupied[t]++
	s.memUse[t] += im.InstrMem + im.DataMem
	s.load[t] += s.wcet[pos][t]
	s.addCommLoad(a, +1)
}

func (s *search) unassign(a *sdf.Actor, pos, t int, im *appmodel.Impl) {
	s.addCommLoad(a, -1)
	s.load[t] -= s.wcet[pos][t]
	s.memUse[t] -= im.InstrMem + im.DataMem
	s.occupied[t]--
	s.tileOf[a.ID] = -1
}

// addCommLoad adds (or removes, sign -1) the PE-side serialization load
// of every channel of a whose other endpoint is already assigned and
// lands on a different tile. With the communication assist enabled the
// (de)serialization leaves the PE and contributes no tile load; IP
// tiles stream through their network interface likewise.
func (s *search) addCommLoad(a *sdf.Actor, sign int64) {
	if s.opt.MapOptions.UseCA {
		return
	}
	g := s.app.Graph
	visit := func(cid sdf.ChannelID, thisEnd, otherEnd sdf.ActorID) {
		tt, ot := s.tileOf[thisEnd], s.tileOf[otherEnd]
		if tt < 0 || ot < 0 || tt == ot {
			return
		}
		c := g.Channel(cid)
		if c.IsSelfLoop() {
			return
		}
		words := int64(c.Words())
		cost := (comm.PESerFixed + words*comm.PESerPerWord) * g.IterationTokens(c, s.q)
		// Serialization burdens the producing tile, deserialization the
		// consuming tile — charge each side once, when this call's actor
		// closes the pair.
		if s.plat.Tiles[tt].Kind != arch.IPTile {
			s.load[tt] += sign * cost
		}
		if s.plat.Tiles[ot].Kind != arch.IPTile {
			s.load[ot] += sign * cost
		}
	}
	for _, cid := range a.Out() {
		c := g.Channel(cid)
		visit(cid, c.Src, c.Dst)
	}
	for _, cid := range a.In() {
		c := g.Channel(cid)
		visit(cid, c.Dst, c.Src)
	}
}

// periodLB computes the admissible lower bound on the iteration period
// for the current partial assignment (first nextPos actors assigned).
func (s *search) periodLB(nextPos int) int64 {
	lb := int64(1)
	var assigned int64
	for _, l := range s.load {
		assigned += l
		if l > lb {
			lb = l
		}
	}
	// Each unassigned actor must put at least its minimum feasible work
	// on some single tile.
	for i := nextPos; i < len(s.order); i++ {
		if s.minWork[i] > lb {
			lb = s.minWork[i]
		}
	}
	// All work spread perfectly over every usable tile.
	total := assigned + s.sumMin[nextPos]
	if spread := (total + int64(s.usable) - 1) / int64(s.usable); spread > lb {
		lb = spread
	}
	// A channel known to cross tiles occupies its connection for at
	// least one cycle per word per iteration.
	for _, ci := range s.chans {
		st, dt := s.tileOf[ci.c.Src], s.tileOf[ci.c.Dst]
		if st >= 0 && dt >= 0 && st != dt && ci.rateCycles > lb {
			lb = ci.rateCycles
		}
	}
	return lb
}

// prune reports whether the subtree below the current assignment cannot
// beat the incumbent: one iteration per period lower bound is an upper
// bound on the throughput of every leaf below it.
func (s *search) prune(nextPos int) bool {
	return s.best != nil && s.best.Throughput.Cmp(sdf.Rate{Firings: 1, Q: 1, Period: s.periodLB(nextPos)}) >= 0
}

// verifyLeaf runs the binding-aware analysis on a complete assignment
// and admits the candidate if it beats the incumbent.
func (s *search) verifyLeaf() {
	mo := s.opt.MapOptions
	mo.FixedBinding = make(map[string]int, len(s.tileOf))
	for _, a := range s.app.Graph.Actors() {
		mo.FixedBinding[a.Name] = s.tileOf[a.ID]
	}
	s.stats.Verifications++
	s.solStat.Verifications.Add(1)
	m, err := mapping.Map(s.app, s.plat, mo)
	if err != nil || m.Analysis.Throughput.IsZero() {
		return // infeasible leaf (memory overheads, NoC capacity, deadlock)
	}
	s.admit(m)
}

// admit makes a verified mapping the incumbent if its throughput is
// higher.
func (s *search) admit(m *mapping.Mapping) {
	rep, err := s.mod.OfMapping(m)
	if err != nil {
		return
	}
	cand := Candidate{
		TileOf:     append([]int(nil), m.TileOf...),
		Binding:    make(map[string]int, len(m.TileOf)),
		Throughput: m.Analysis.Throughput,
		Energy:     rep,
		Mapping:    m,
	}
	for _, a := range s.app.Graph.Actors() {
		cand.Binding[a.Name] = m.TileOf[a.ID]
	}
	if s.best == nil || cand.Throughput.Cmp(s.best.Throughput) > 0 {
		s.best = &cand
		s.stats.Incumbents++
		s.solStat.Incumbents.Add(1)
	}
}
