package mamps

import (
	"testing"
)

// TestFacadeEndToEnd drives the whole public API surface once: modelling,
// analysis, mapping, project generation, simulation, interchange.
func TestFacadeEndToEnd(t *testing.T) {
	g := NewGraph("facade")
	a := g.AddActor("a", 30)
	b := g.AddActor("b", 50)
	c1 := g.Connect(a, b, 1, 1, 0)
	c1.Name, c1.TokenSize = "ab", 16
	c2 := g.Connect(b, a, 1, 1, 2)
	c2.Name, c2.TokenSize = "ba", 4

	// Analysis on the raw graph.
	thr, err := AnalyzeThroughput(g)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle: (30+50)/2 tokens = 40 cycles per iteration with unbounded
	// auto-concurrency.
	if thr <= 0 {
		t.Fatalf("throughput = %v", thr)
	}

	app := NewApp("facade", g)
	app.AddImpl(a, Impl{PE: MicroBlaze, WCET: 30, InstrMem: 1024, DataMem: 256,
		Fire: func(m *Meter, in [][]Token) ([][]Token, error) {
			m.Add(30)
			return [][]Token{{1}}, nil
		}})
	app.AddImpl(b, Impl{PE: MicroBlaze, WCET: 50, InstrMem: 1024, DataMem: 256,
		Fire: func(m *Meter, in [][]Token) ([][]Token, error) {
			m.Add(50)
			return [][]Token{{2}}, nil
		}})

	// Buffer sizing.
	dist, got, err := MinimizeBuffers(g, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.001 || len(dist) != g.NumChannels() {
		t.Fatalf("buffers: %v at %v", dist, got)
	}

	// Template, mapping, project, simulation.
	plat, err := DefaultTemplate().Generate("p", 2, FSL)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Map(app, plat, MapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	proj, err := GenerateProject(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(proj.Files) == 0 {
		t.Fatal("no project files")
	}
	res, err := Simulate(m, SimOptions{Iterations: 20, RefActor: "b", CheckWCET: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Cmp(m.Analysis.Throughput) < 0 {
		t.Fatalf("guarantee violated: %v < %v", res.Throughput, m.Analysis.Throughput)
	}

	// End-to-end flow with unit conversion.
	fres, err := RunFlow(FlowConfig{App: app, Tiles: 2, Interconnect: FSL, Iterations: 20, RefActor: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if MCUsPerMegacycle(fres.Measured) <= 0 {
		t.Fatal("flow produced no measurement")
	}

	// Interchange round trip through the facade.
	data, err := WriteApp(app)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadApp(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Graph.NumActors() != 2 {
		t.Fatal("app round trip lost actors")
	}
	ad, err := WriteArch(plat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArch(ad); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteMapping(m); err != nil {
		t.Fatal(err)
	}

	// Design-space exploration.
	pts, err := Sweep(app, DSEConfig{MaxTiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ParetoFront(pts)) == 0 {
		t.Fatal("empty Pareto front")
	}
}
