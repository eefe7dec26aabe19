// Package mapping implements the SDF3 step of the design flow: binding the
// actors of a throughput-constrained application to the tiles of a MAMPS
// platform, constructing static-order schedules, allocating channel
// buffers, configuring the interconnect, and verifying the worst-case
// throughput of the result with a binding-aware state-space analysis.
//
// The binding is steered by the four generic cost functions of the paper:
// processing, memory usage, communication, and latency (Section 5.1). The
// binding-aware analysis graph is built from the Figure 4 communication
// model (package comm), so the throughput bound this package computes is
// guaranteed to be met or exceeded by the MAMPS implementation of the
// mapping.
package mapping

import (
	"fmt"
	"sort"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/buffer"
	"mamps/internal/comm"
	"mamps/internal/noc"
	"mamps/internal/sdf"
	"mamps/internal/statespace"
)

// The weights of the four generic cost functions that steer the
// binding, balanced as the SDF3 flow does by default.
const (
	weightProcessing    = 1
	weightMemory        = 0.25
	weightCommunication = 0.5
	weightLatency       = 0.25
)

// Options configures the mapping flow.
type Options struct {
	// UseCA offloads token (de)serialization to a communication assist:
	// the Section 6.3 experiment. Serialization actors then leave the
	// tile schedules and use the CA cost coefficients.
	UseCA bool
	// ExecTimes overrides the actor execution times used in the analysis
	// (by actor name). The worst-case analysis uses the implementation
	// WCETs; the "expected" analysis of Figure 6 passes maximum measured
	// times instead.
	ExecTimes map[string]int64
	// BufferIterations sizes each channel buffer to this many iterations
	// worth of tokens (minimum 2 for cross-tile pipelining). Zero
	// selects 2.
	BufferIterations int
	// FixedBinding forces the given actor->tile binding (by actor name)
	// instead of running the cost-driven binding. Used by the CA
	// experiment, which maps actors "to the same resources as in the
	// original experiment".
	FixedBinding map[string]int
	// DisabledTiles lists tile indices no actor may be bound to. The
	// flow's degraded-mode recovery re-maps onto the tiles surviving a
	// fail-stop by disabling the failed one.
	DisabledTiles []int

	// Analyze, if set, replaces the direct statespace.Analyze call of the
	// binding-aware throughput verification. The mapping service injects
	// a content-addressed memoizing analyzer here, which also threads
	// cancellation (statespace.Options.Interrupt) into the exploration.
	// The function must be semantically equivalent to statespace.Analyze.
	Analyze func(g *sdf.Graph, opt statespace.Options) (statespace.Result, error)
}

// analyzer returns the state-space analysis entry point to use.
func (o Options) analyzer() func(*sdf.Graph, statespace.Options) (statespace.Result, error) {
	if o.Analyze != nil {
		return o.Analyze
	}
	return statespace.Analyze
}

// Result is the outcome of the throughput verification.
type Result struct {
	// Throughput is the guaranteed worst-case throughput of the mapped
	// application, exact (graph iterations per clock cycle as a
	// ratio); compare it with Cmp or Meets, never through Float. Zero
	// when the schedules and buffers deadlock, in which case Map fails.
	Throughput sdf.Rate
	// States is the number of states the analysis explored.
	States int
}

// Mapping is the full output of the SDF3 step, the common interchange that
// the platform generator consumes directly (no manual translation step —
// the automation contribution of the paper over CA-MPSoC).
type Mapping struct {
	App      *appmodel.App
	Platform *arch.Platform

	// TileOf assigns every actor to a tile index.
	TileOf []int
	// Schedules holds the static-order schedule of each tile over the
	// original graph's actors (one entry per firing per iteration).
	Schedules [][]sdf.ActorID
	// Buffers is the capacity of each original channel in tokens.
	Buffers buffer.Distribution
	// CommParams parameterizes each inter-tile channel's Figure 4 model.
	CommParams map[sdf.ChannelID]comm.Params
	// Mesh is the programmed NoC (nil for FSL platforms).
	Mesh *noc.Mesh
	// Connections maps inter-tile channels to their NoC connections.
	Connections map[sdf.ChannelID]*noc.Connection

	// Expanded is the binding-aware analysis graph (communication model
	// applied, execution times bound) and ExpandedSchedules the tile
	// schedules over it (serialization actors injected unless UseCA).
	Expanded          *comm.Expansion
	ExpandedSchedules []statespace.Schedule

	// Analysis is the verified worst-case throughput.
	Analysis Result
}

// InterTile reports whether channel c crosses tiles under the binding.
func (m *Mapping) InterTile(c *sdf.Channel) bool {
	return m.TileOf[c.Src] != m.TileOf[c.Dst]
}

// Map runs the complete SDF3 mapping flow.
func Map(app *appmodel.App, p *arch.Platform, opt Options) (*Mapping, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := app.Graph
	q, err := g.RepetitionVector()
	if err != nil {
		return nil, err
	}
	if opt.BufferIterations < 2 {
		opt.BufferIterations = 2
	}

	m := &Mapping{App: app, Platform: p}
	if err := m.bind(q, opt); err != nil {
		return nil, err
	}
	if err := m.buildSchedules(q); err != nil {
		return nil, err
	}
	m.sizeBuffers(q, opt)
	if err := m.configureInterconnect(opt); err != nil {
		return nil, err
	}
	if err := m.checkMemory(); err != nil {
		return nil, err
	}
	if err := m.analyze(opt); err != nil {
		return nil, err
	}
	return m, nil
}

// bind assigns actors to tiles, heaviest first, minimizing the weighted
// cost functions.
func (m *Mapping) bind(q []int64, opt Options) error {
	g := m.App.Graph
	p := m.Platform
	m.TileOf = make([]int, g.NumActors())
	for i := range m.TileOf {
		m.TileOf[i] = -1
	}

	// Per-tile running totals for the cost functions.
	nTiles := len(p.Tiles)
	load := make([]int64, nTiles)
	memUse := make([]int, nTiles)
	disabled := make([]bool, nTiles)
	for _, t := range opt.DisabledTiles {
		if t < 0 || t >= nTiles {
			return fmt.Errorf("mapping: disabled tile %d out of range", t)
		}
		disabled[t] = true
	}

	weight := func(a *sdf.Actor, pe arch.PEType) int64 {
		im := m.App.ImplFor(a.ID, pe)
		if im == nil {
			return 0
		}
		return im.WCET * q[a.ID]
	}

	order := make([]*sdf.Actor, len(g.Actors()))
	copy(order, g.Actors())
	sort.SliceStable(order, func(i, j int) bool {
		// Heaviest first, using the maximum weight over all PE types.
		return maxWeight(m.App, order[i], q) > maxWeight(m.App, order[j], q)
	})

	var totalWork int64
	for _, a := range g.Actors() {
		totalWork += maxWeight(m.App, a, q)
	}
	if totalWork == 0 {
		totalWork = 1
	}

	for _, a := range order {
		if opt.FixedBinding != nil {
			t, ok := opt.FixedBinding[a.Name]
			if !ok {
				return fmt.Errorf("mapping: FixedBinding misses actor %q", a.Name)
			}
			if t < 0 || t >= nTiles {
				return fmt.Errorf("mapping: FixedBinding places %q on invalid tile %d", a.Name, t)
			}
			if disabled[t] {
				return fmt.Errorf("mapping: FixedBinding places %q on disabled tile %d", a.Name, t)
			}
			im := m.App.ImplFor(a.ID, p.Tiles[t].PE)
			if im == nil {
				return fmt.Errorf("mapping: actor %q has no implementation for tile %d (%s)", a.Name, t, p.Tiles[t].PE)
			}
			m.TileOf[a.ID] = t
			load[t] += im.WCET * q[a.ID]
			memUse[t] += im.InstrMem + im.DataMem
			continue
		}
		best := -1
		bestCost := 0.0
		for t, tile := range p.Tiles {
			if disabled[t] {
				continue
			}
			im := m.App.ImplFor(a.ID, tile.PE)
			if im == nil {
				continue
			}
			if im.NeedsPeripherals && tile.Kind != arch.MasterTile {
				continue
			}
			// An IP tile is a single hardware actor behind a network
			// interface (Tile 4 of Figure 3): it hosts exactly one actor.
			if tile.Kind == arch.IPTile && tileOccupied(m.TileOf, t) {
				continue
			}
			if memUse[t]+im.InstrMem+im.DataMem > tile.InstrMem+tile.DataMem {
				continue
			}
			c := m.tileCost(a, t, im, q, load, memUse, totalWork)
			if best < 0 || c < bestCost {
				best, bestCost = t, c
			}
		}
		if best < 0 {
			return fmt.Errorf("mapping: no feasible tile for actor %q (PE type, peripherals or memory)", a.Name)
		}
		m.TileOf[a.ID] = best
		load[best] += weight(a, p.Tiles[best].PE)
		im := m.App.ImplFor(a.ID, p.Tiles[best].PE)
		memUse[best] += im.InstrMem + im.DataMem
	}
	return nil
}

func maxWeight(app *appmodel.App, a *sdf.Actor, q []int64) int64 {
	var w int64
	for _, im := range app.Impls[a.ID] {
		if v := im.WCET * q[a.ID]; v > w {
			w = v
		}
	}
	return w
}

// tileCost evaluates the weighted cost of placing actor a on tile t.
func (m *Mapping) tileCost(a *sdf.Actor, t int, im *appmodel.Impl, q []int64,
	load []int64, memUse []int, totalWork int64) float64 {
	g := m.App.Graph
	tile := m.Platform.Tiles[t]

	processing := float64(load[t]+im.WCET*q[a.ID]) / float64(totalWork)
	memory := float64(memUse[t]+im.InstrMem+im.DataMem) / float64(tile.InstrMem+tile.DataMem)

	// Communication: words crossing tiles per iteration if a lands on t.
	var crossWords float64
	var hops float64
	visit := func(c *sdf.Channel, other sdf.ActorID) {
		ot := m.TileOf[other]
		if ot == -1 || ot == t {
			return
		}
		words := float64(g.IterationTokens(c, q)) * float64(c.Words())
		crossWords += words
		if m.Platform.Interconnect.Kind == arch.NoC {
			a := tileCoord(len(m.Platform.Tiles), t)
			b := tileCoord(len(m.Platform.Tiles), ot)
			hops += float64(abs(a.X-b.X) + abs(a.Y-b.Y))
		} else {
			hops++
		}
	}
	for _, cid := range a.Out() {
		c := g.Channel(cid)
		if !c.IsSelfLoop() {
			visit(c, c.Dst)
		}
	}
	for _, cid := range a.In() {
		c := g.Channel(cid)
		if !c.IsSelfLoop() {
			visit(c, c.Src)
		}
	}
	// Normalize communication by total channel traffic.
	var totalWords float64
	for _, c := range g.Channels() {
		totalWords += float64(g.IterationTokens(c, q)) * float64(c.Words())
	}
	if totalWords == 0 {
		totalWords = 1
	}
	communication := crossWords / totalWords
	latency := hops / float64(len(m.Platform.Tiles))

	return weightProcessing*processing + weightMemory*memory + weightCommunication*communication + weightLatency*latency
}

func tileOccupied(tileOf []int, t int) bool {
	for _, tl := range tileOf {
		if tl == t {
			return true
		}
	}
	return false
}

func tileCoord(n, i int) noc.Coord {
	w, _ := noc.Dimension(n)
	return noc.Coord{X: i % w, Y: i / w}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
