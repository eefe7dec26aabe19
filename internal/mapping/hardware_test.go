package mapping

import (
	"testing"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/sdf"
	"mamps/internal/wcet"
)

// execChain builds an executable a->b->c chain with the given PE types
// per actor (each actor gets one impl per listed PE).
func execChain(t *testing.T, tokenSize int, pes [3][]arch.PEType, wcets [3]int64) *appmodel.App {
	t.Helper()
	g := sdf.NewGraph("hw")
	names := []string{"a", "b", "c"}
	actors := make([]*sdf.Actor, 3)
	for i, n := range names {
		actors[i] = g.AddActor(n, wcets[i])
	}
	c1 := g.Connect(actors[0], actors[1], 1, 1, 0)
	c1.Name, c1.TokenSize = "ab", tokenSize
	c2 := g.Connect(actors[1], actors[2], 1, 1, 0)
	c2.Name, c2.TokenSize = "bc", tokenSize
	app := appmodel.New("hw", g)
	for i, actor := range actors {
		w := wcets[i]
		nOut := len(actor.Out())
		for _, pe := range pes[i] {
			app.AddImpl(actor, appmodel.Impl{
				PE: pe, WCET: w, InstrMem: 1024, DataMem: 512,
				Fire: func(m *wcet.Meter, in [][]appmodel.Token) ([][]appmodel.Token, error) {
					m.Add(w)
					out := make([][]appmodel.Token, nOut)
					for pi := range out {
						out[pi] = []appmodel.Token{1}
					}
					return out, nil
				},
			})
		}
	}
	return app
}

// TestPerTileCA verifies that a CA on a single tile (Tile 3 of Figure 3)
// offloads exactly the channel ends touching that tile.
func TestPerTileCA(t *testing.T) {
	mb := []arch.PEType{arch.MicroBlaze}
	app := execChain(t, 256, [3][]arch.PEType{mb, mb, mb}, [3]int64{100, 100, 100})
	p, err := arch.DefaultTemplate().Generate("p", 3, arch.FSL)
	if err != nil {
		t.Fatal(err)
	}
	p.Tiles[1].HasCA = true // only the middle tile has a CA
	fixed := map[string]int{"a": 0, "b": 1, "c": 2}
	m, err := Map(app, p, Options{FixedBinding: fixed})
	if err != nil {
		t.Fatal(err)
	}
	g := app.Graph
	var ab, bc sdf.ChannelID
	for _, c := range g.Channels() {
		switch c.Name {
		case "ab":
			ab = c.ID
		case "bc":
			bc = c.ID
		}
	}
	pab := m.CommParams[ab]
	if pab.SrcOnCA || !pab.DstOnCA {
		t.Errorf("ab params = %+v: want CA at destination (tile1) only", pab)
	}
	pbc := m.CommParams[bc]
	if !pbc.SrcOnCA || pbc.DstOnCA {
		t.Errorf("bc params = %+v: want CA at source (tile1) only", pbc)
	}
	// The partially-CA platform beats the all-PE one and loses to the
	// all-CA one (tile1 is the comm hub, so its CA buys most of the win).
	pNone, _ := arch.DefaultTemplate().Generate("p0", 3, arch.FSL)
	mNone, err := Map(execChain(t, 256, [3][]arch.PEType{mb, mb, mb}, [3]int64{100, 100, 100}), pNone, Options{FixedBinding: fixed})
	if err != nil {
		t.Fatal(err)
	}
	if m.Analysis.Throughput.Cmp(mNone.Analysis.Throughput) <= 0 {
		t.Errorf("per-tile CA %v should beat all-PE %v", m.Analysis.Throughput, mNone.Analysis.Throughput)
	}
}

// TestIPTileHostsHardwareActor maps an actor onto an IP tile (Tile 4 of
// Figure 3): the actor's implementation targets the IP core type, the
// tile hosts exactly that one actor, and its NI streams tokens without PE
// serialization cost.
func TestIPTileHostsHardwareActor(t *testing.T) {
	const idctCore arch.PEType = "idct-core"
	mb := []arch.PEType{arch.MicroBlaze}
	app := execChain(t, 128,
		[3][]arch.PEType{mb, {idctCore}, mb}, // b only runs on the IP core
		[3]int64{100, 60, 100})
	p := &arch.Platform{
		Name: "ip3", ClockMHz: 100,
		Tiles: []*arch.Tile{
			{Name: "tile0", Kind: arch.MasterTile, PE: arch.MicroBlaze,
				InstrMem: 64 * 1024, DataMem: 64 * 1024, Peripherals: []string{"uart"}},
			{Name: "ip0", Kind: arch.IPTile, PE: idctCore,
				InstrMem: 8 * 1024, DataMem: 8 * 1024},
			{Name: "tile2", Kind: arch.SlaveTile, PE: arch.MicroBlaze,
				InstrMem: 64 * 1024, DataMem: 64 * 1024},
		},
		Interconnect: arch.Interconnect{Kind: arch.FSL, FIFODepth: 16},
	}
	m, err := Map(app, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := app.Graph.ActorByName("b")
	if m.TileOf[b.ID] != 1 {
		t.Fatalf("b on tile %d, want the IP tile", m.TileOf[b.ID])
	}
	// Both channels touch the IP tile: their IP ends are offloaded.
	for _, c := range app.Graph.Channels() {
		pr := m.CommParams[c.ID]
		if c.Name == "ab" && !pr.DstOnCA {
			t.Error("ab: IP destination should stream natively")
		}
		if c.Name == "bc" && !pr.SrcOnCA {
			t.Error("bc: IP source should stream natively")
		}
	}
	if m.Analysis.Throughput.IsZero() {
		t.Fatal("no throughput bound")
	}
}

// TestIPTileSingleOccupancy: an IP tile cannot host two actors.
func TestIPTileSingleOccupancy(t *testing.T) {
	const core arch.PEType = "core"
	app := execChain(t, 16,
		[3][]arch.PEType{{core}, {core}, {core}},
		[3]int64{10, 10, 10})
	p := &arch.Platform{
		Name: "ip1", ClockMHz: 100,
		Tiles: []*arch.Tile{
			{Name: "m", Kind: arch.MasterTile, PE: arch.MicroBlaze,
				InstrMem: 32 * 1024, DataMem: 32 * 1024, Peripherals: []string{"uart"}},
			{Name: "ip0", Kind: arch.IPTile, PE: core, InstrMem: 8192, DataMem: 8192},
		},
		Interconnect: arch.Interconnect{Kind: arch.FSL, FIFODepth: 16},
	}
	// Three actors need the core but only one IP tile exists: infeasible.
	if _, err := Map(app, p, Options{}); err == nil {
		t.Fatal("expected no-feasible-tile error for the second core actor")
	}
}
