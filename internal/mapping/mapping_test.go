package mapping

import (
	"testing"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/mjpeg"
	"mamps/internal/sdf"
)

// pipelineApp builds a 3-actor pipeline app (a -> b -> c, 1/1 rates,
// moderate token sizes) for mapping tests; analysis-only (no Fire).
func pipelineApp(wa, wb, wc int64) *appmodel.App {
	g := sdf.NewGraph("pipe")
	a := g.AddActor("a", wa)
	b := g.AddActor("b", wb)
	c := g.AddActor("c", wc)
	c1 := g.Connect(a, b, 1, 1, 0)
	c1.Name, c1.TokenSize = "a2b", 32
	c2 := g.Connect(b, c, 1, 1, 0)
	c2.Name, c2.TokenSize = "b2c", 32
	app := appmodel.New("pipe", g)
	for _, actor := range g.Actors() {
		app.AddImpl(actor, appmodel.Impl{
			PE: arch.MicroBlaze, WCET: actor.ExecTime,
			InstrMem: 4096, DataMem: 2048,
		})
	}
	return app
}

func fslPlatform(t *testing.T, n int) *arch.Platform {
	t.Helper()
	p, err := arch.DefaultTemplate().Generate("plat", n, arch.FSL)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMapPipelineTwoTiles(t *testing.T) {
	app := pipelineApp(100, 100, 100)
	p := fslPlatform(t, 2)
	m, err := Map(app, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All actors bound, schedules non-empty, throughput positive.
	for _, tl := range m.TileOf {
		if tl < 0 || tl >= 2 {
			t.Fatalf("TileOf = %v", m.TileOf)
		}
	}
	if m.Analysis.Throughput.IsZero() {
		t.Fatalf("analysis = %+v", m.Analysis)
	}
	// Load balancing: 3 equal actors over 2 tiles must use both tiles.
	used := map[int]bool{}
	for _, tl := range m.TileOf {
		used[tl] = true
	}
	if len(used) != 2 {
		t.Fatalf("binding used %d tiles, want 2 (TileOf=%v)", len(used), m.TileOf)
	}
}

func TestMapSingleTileSerializes(t *testing.T) {
	app := pipelineApp(10, 20, 30)
	p := fslPlatform(t, 1)
	m, err := Map(app, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Everything on one tile: no comm channels, throughput = 1/(10+20+30).
	if len(m.CommParams) != 0 {
		t.Fatalf("single tile must not use the interconnect: %v", m.CommParams)
	}
	if m.Analysis.Throughput.Cmp(sdf.Rate{Firings: 1, Q: 1, Period: 60}) != 0 {
		t.Fatalf("throughput = %+v, want 1/60", m.Analysis.Throughput)
	}
}

func TestMapFixedBinding(t *testing.T) {
	app := pipelineApp(100, 100, 100)
	p := fslPlatform(t, 3)
	fixed := map[string]int{"a": 2, "b": 1, "c": 0}
	m, err := Map(app, p, Options{FixedBinding: fixed})
	if err != nil {
		t.Fatal(err)
	}
	g := app.Graph
	for name, tile := range fixed {
		if m.TileOf[g.ActorByName(name).ID] != tile {
			t.Fatalf("actor %s on tile %d, want %d", name, m.TileOf[g.ActorByName(name).ID], tile)
		}
	}
	if _, err := Map(app, p, Options{FixedBinding: map[string]int{"a": 0}}); err == nil {
		t.Fatal("incomplete FixedBinding should fail")
	}
	if _, err := Map(app, p, Options{FixedBinding: map[string]int{"a": 9, "b": 0, "c": 0}}); err == nil {
		t.Fatal("out-of-range FixedBinding should fail")
	}
}

func TestMapSchedulesCoverRepetitionVector(t *testing.T) {
	g := sdf.NewGraph("mr")
	a := g.AddActor("a", 10)
	b := g.AddActor("b", 10)
	c1 := g.Connect(a, b, 3, 2, 0)
	c1.TokenSize = 8
	app := appmodel.New("mr", g)
	for _, actor := range g.Actors() {
		app.AddImpl(actor, appmodel.Impl{PE: arch.MicroBlaze, WCET: 10, InstrMem: 1024, DataMem: 512})
	}
	p := fslPlatform(t, 2)
	m, err := Map(app, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := g.RepetitionVector()
	counts := make(map[sdf.ActorID]int64)
	for _, sched := range m.Schedules {
		for _, aid := range sched {
			counts[aid]++
		}
	}
	for _, actor := range g.Actors() {
		if counts[actor.ID] != q[actor.ID] {
			t.Fatalf("schedule fires %q %d times, want %d", actor.Name, counts[actor.ID], q[actor.ID])
		}
	}
}

func TestMapCAImprovesThroughput(t *testing.T) {
	// Comm-heavy pipeline: large tokens make PE serialization dominate.
	app := pipelineApp(50, 50, 50)
	app.Graph.Channel(0).TokenSize = 256
	app.Graph.Channel(1).TokenSize = 256
	p := fslPlatform(t, 3)
	fixed := map[string]int{"a": 0, "b": 1, "c": 2}
	pe, err := Map(app, p, Options{FixedBinding: fixed})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := Map(app, p, Options{FixedBinding: fixed, UseCA: true})
	if err != nil {
		t.Fatal(err)
	}
	if ca.Analysis.Throughput.Cmp(pe.Analysis.Throughput) <= 0 {
		t.Fatalf("CA %v should beat PE serialization %v", ca.Analysis.Throughput, pe.Analysis.Throughput)
	}
}

func TestMapExecTimeOverridesRaiseThroughput(t *testing.T) {
	app := pipelineApp(100, 200, 100)
	p := fslPlatform(t, 3)
	fixed := map[string]int{"a": 0, "b": 1, "c": 2}
	worst, err := Map(app, p, Options{FixedBinding: fixed})
	if err != nil {
		t.Fatal(err)
	}
	expected, err := Map(app, p, Options{FixedBinding: fixed, ExecTimes: map[string]int64{
		"a": 50, "b": 80, "c": 50, // measured times below WCET
	}})
	if err != nil {
		t.Fatal(err)
	}
	if expected.Analysis.Throughput.Cmp(worst.Analysis.Throughput) <= 0 {
		t.Fatalf("expected-case %v should exceed worst-case %v",
			expected.Analysis.Throughput, worst.Analysis.Throughput)
	}
}

func TestMapNoCPlatform(t *testing.T) {
	app := pipelineApp(100, 100, 100)
	pn, err := arch.DefaultTemplate().Generate("noc", 3, arch.NoC)
	if err != nil {
		t.Fatal(err)
	}
	fixed := map[string]int{"a": 0, "b": 1, "c": 2}
	mn, err := Map(app, pn, Options{FixedBinding: fixed})
	if err != nil {
		t.Fatal(err)
	}
	if mn.Mesh == nil {
		t.Fatal("NoC mapping must program a mesh")
	}
	if len(mn.Connections) != 2 {
		t.Fatalf("connections = %d, want 2", len(mn.Connections))
	}
	pf := fslPlatform(t, 3)
	mf, err := Map(app, pf, Options{FixedBinding: fixed})
	if err != nil {
		t.Fatal(err)
	}
	if mn.Analysis.Throughput.Cmp(mf.Analysis.Throughput) > 0 {
		t.Fatalf("NoC throughput %v exceeds FSL %v", mn.Analysis.Throughput, mf.Analysis.Throughput)
	}
}

func TestMapMemoryOverflow(t *testing.T) {
	app := pipelineApp(10, 10, 10)
	g := app.Graph
	for _, actor := range g.Actors() {
		app.Impls[actor.ID][0].InstrMem = 200 * 1024
		app.Impls[actor.ID][0].DataMem = 40 * 1024
	}
	p := fslPlatform(t, 1)
	if _, err := Map(app, p, Options{}); err == nil {
		t.Fatal("expected memory overflow error")
	}
}

func TestMapNoImplementationFails(t *testing.T) {
	g := sdf.NewGraph("x")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.Connect(a, b, 1, 1, 0)
	app := appmodel.New("x", g)
	app.AddImpl(a, appmodel.Impl{PE: "dsp", WCET: 1})
	app.AddImpl(b, appmodel.Impl{PE: arch.MicroBlaze, WCET: 1})
	p := fslPlatform(t, 2)
	if _, err := Map(app, p, Options{}); err == nil {
		t.Fatal("expected no-feasible-tile error")
	}
}

func TestMapPeripheralConstraint(t *testing.T) {
	app := pipelineApp(100, 100, 100)
	// Actor c needs peripherals: must land on tile 0 (master).
	cID := app.Graph.ActorByName("c").ID
	app.Impls[cID][0].NeedsPeripherals = true
	p := fslPlatform(t, 3)
	m, err := Map(app, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.TileOf[cID] != 0 {
		t.Fatalf("peripheral actor on tile %d, want master tile 0", m.TileOf[cID])
	}
}

func TestMapMJPEGFiveTilesFSL(t *testing.T) {
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 32, 32, 1, 80, mjpeg.Sampling420)
	if err != nil {
		t.Fatal(err)
	}
	app, _, err := mjpeg.BuildApp(stream)
	if err != nil {
		t.Fatal(err)
	}
	p := fslPlatform(t, 5)
	m, err := Map(app, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// VLD reads the input file: master tile.
	vld := app.Graph.ActorByName("VLD")
	if m.TileOf[vld.ID] != 0 {
		t.Errorf("VLD on tile %d, want master", m.TileOf[vld.ID])
	}
	if m.Analysis.Throughput.IsZero() {
		t.Fatalf("throughput = %v", m.Analysis.Throughput)
	}
	t.Logf("MJPEG worst-case throughput: %.3e iterations/cycle (%d states)",
		m.Analysis.Throughput.Float(), m.Analysis.States)
}

func TestMapDeterministic(t *testing.T) {
	app := pipelineApp(120, 80, 100)
	p := fslPlatform(t, 3)
	m1, err := Map(app, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Map(app, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.TileOf {
		if m1.TileOf[i] != m2.TileOf[i] {
			t.Fatal("binding not deterministic")
		}
	}
	if m1.Analysis.Throughput != m2.Analysis.Throughput {
		t.Fatal("analysis not deterministic")
	}
}
