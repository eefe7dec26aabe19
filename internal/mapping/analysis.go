package mapping

import (
	"fmt"

	"mamps/internal/arch"
	"mamps/internal/comm"
	"mamps/internal/sdf"
	"mamps/internal/statespace"
)

// analyze builds the binding-aware graph — execution times bound to the
// chosen implementations, inter-tile channels replaced by the Figure 4
// model, local channels bounded by their buffer capacities, serialization
// injected into the tile schedules — and verifies its worst-case
// throughput with the state-space analysis.
func (m *Mapping) analyze(opt Options) error {
	g := m.App.Graph

	// Bind execution times.
	bound := g.Clone()
	for _, a := range bound.Actors() {
		if opt.ExecTimes != nil {
			if et, ok := opt.ExecTimes[a.Name]; ok {
				a.ExecTime = et
				continue
			}
		}
		tile := m.Platform.Tiles[m.TileOf[a.ID]]
		im := m.App.ImplFor(a.ID, tile.PE)
		if im == nil {
			return fmt.Errorf("mapping: actor %q lost its implementation for %q", a.Name, tile.PE)
		}
		a.ExecTime = im.WCET
	}

	ex, err := comm.Expand(bound, m.CommParams)
	if err != nil {
		return err
	}
	m.Expanded = ex

	// Bound the local (same-tile) channels with space back-edges.
	byName := make(map[string]*sdf.Channel, ex.Graph.NumChannels())
	for _, c := range ex.Graph.Channels() {
		byName[c.Name] = c
	}
	for _, c := range g.Channels() {
		if c.IsSelfLoop() || m.InterTile(c) {
			continue
		}
		nc, ok := byName[c.Name]
		if !ok {
			return fmt.Errorf("mapping: local channel %q missing from expanded graph", c.Name)
		}
		cap := m.Buffers[c.ID]
		if cap < c.InitialTokens {
			return fmt.Errorf("mapping: channel %q capacity %d below initial tokens", c.Name, cap)
		}
		sc := ex.Graph.Connect(ex.Graph.Actor(nc.Dst), ex.Graph.Actor(nc.Src), nc.DstRate, nc.SrcRate, cap-c.InitialTokens)
		sc.Name = c.Name + "_space"
		sc.TokenSize = 0
	}

	// Tile schedules are constructed on the expanded graph so that
	// serialization and deserialization firings are ordered feasibly with
	// respect to initial tokens and pipeline buffering (see
	// buildExpandedSchedules).
	if err := m.buildExpandedSchedules(opt); err != nil {
		return err
	}

	res, err := opt.analyzer()(ex.Graph, statespace.Options{
		Schedules: m.ExpandedSchedules,
		MaxStates: 1 << 22,
	})
	if err != nil {
		return err
	}
	m.Analysis = Result{Throughput: res.Throughput, States: res.StatesExplored}
	if res.Deadlocked {
		return fmt.Errorf("mapping: mapped application deadlocks under the chosen schedules and buffers:\n%s", res.DeadlockReport)
	}
	return nil
}

// TileMemory returns the instruction and data memory requirement of tile
// t in bytes: the platform layer (scheduler and communication library),
// the bound actor implementations, and the channel buffers with an
// endpoint on the tile. The platform generator sizes the tile memories
// from exactly this accounting.
func (m *Mapping) TileMemory(t int) (instr, data int) {
	g := m.App.Graph
	tile := m.Platform.Tiles[t]
	instr = arch.PlatformInstrOverhead
	data = arch.PlatformDataOverhead
	for _, a := range g.Actors() {
		if m.TileOf[a.ID] != t {
			continue
		}
		im := m.App.ImplFor(a.ID, tile.PE)
		instr += im.InstrMem
		data += im.DataMem
	}
	for _, c := range g.Channels() {
		cap := m.Buffers[c.ID]
		if cap == 0 && c.IsSelfLoop() {
			cap = c.InitialTokens
		}
		// The source tile holds the send buffer, the destination tile
		// the receive buffer; a local channel needs one buffer.
		if m.TileOf[c.Src] == t || m.TileOf[c.Dst] == t {
			data += cap * maxInt(4, c.TokenSize)
		}
	}
	return instr, data
}

// checkMemory verifies that every tile's implementations, channel buffers
// and platform layer fit the tile memories.
func (m *Mapping) checkMemory() error {
	for t, tile := range m.Platform.Tiles {
		instr, data := m.TileMemory(t)
		if instr+data > tile.InstrMem+tile.DataMem {
			return fmt.Errorf("mapping: tile %q needs %d bytes (instr %d + data %d), has %d",
				tile.Name, instr+data, instr, data, tile.InstrMem+tile.DataMem)
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
