package energy

import (
	"math"
	"testing"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/mapping"
	"mamps/internal/sdf"
)

func pipelineApp(t *testing.T) *appmodel.App {
	t.Helper()
	g := sdf.NewGraph("pipe")
	a := g.AddActor("a", 100)
	b := g.AddActor("b", 200)
	c := g.AddActor("c", 100)
	c1 := g.Connect(a, b, 1, 1, 0)
	c1.TokenSize = 16
	c2 := g.Connect(b, c, 1, 1, 0)
	c2.TokenSize = 16
	app := appmodel.New("pipe", g)
	for _, actor := range g.Actors() {
		app.AddImpl(actor, appmodel.Impl{PE: arch.MicroBlaze, WCET: actor.ExecTime, InstrMem: 2048, DataMem: 1024})
	}
	return app
}

func mapOn(t *testing.T, app *appmodel.App, tiles int, ic arch.InterconnectKind, ca bool) *mapping.Mapping {
	t.Helper()
	p, err := arch.DefaultTemplate().Generate("p", tiles, ic)
	if err != nil {
		t.Fatal(err)
	}
	if ca {
		for _, tl := range p.Tiles {
			tl.HasCA = true
		}
	}
	m, err := mapping.Map(app, p, mapping.Options{UseCA: ca})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOfMappingComponents(t *testing.T) {
	app := pipelineApp(t)
	m := mapOn(t, app, 3, arch.FSL, false)
	r, err := DefaultModel().OfMapping(m)
	if err != nil {
		t.Fatal(err)
	}
	if r.DynamicPJ <= 0 || r.CommPJ <= 0 || r.StaticPJ <= 0 {
		t.Fatalf("all components must be positive: %+v", r)
	}
	if got := r.DynamicPJ + r.CommPJ + r.StaticPJ; math.Abs(got-r.TotalPJ) > 1e-9 {
		t.Fatalf("TotalPJ %v != sum of components %v", r.TotalPJ, got)
	}
	if r.PeriodCycles <= 0 || math.Abs(r.PeriodCycles-1/m.Analysis.Throughput.Float()) > 1e-9 {
		t.Fatalf("period %v, want 1/throughput %v", r.PeriodCycles, 1/m.Analysis.Throughput.Float())
	}
	if r.AvgWatts <= 0 {
		t.Fatalf("AvgWatts = %v", r.AvgWatts)
	}
	// The firing work alone: 400 WCET cycles per iteration at the PE rate
	// is a floor under the dynamic share.
	if floor := 400 * PEDynamicPJPerCycle; r.DynamicPJ < floor {
		t.Fatalf("DynamicPJ %v below firing floor %v", r.DynamicPJ, floor)
	}
}

func TestSingleTileHasNoCommEnergy(t *testing.T) {
	app := pipelineApp(t)
	m := mapOn(t, app, 1, arch.FSL, false)
	r, err := DefaultModel().OfMapping(m)
	if err != nil {
		t.Fatal(err)
	}
	if r.CommPJ != 0 {
		t.Fatalf("single-tile mapping moved words over the interconnect: %+v", r)
	}
}

func TestCAReducesSerializationEnergy(t *testing.T) {
	app := pipelineApp(t)
	pe, err := DefaultModel().OfMapping(mapOn(t, app, 3, arch.FSL, false))
	if err != nil {
		t.Fatal(err)
	}
	ca, err := DefaultModel().OfMapping(mapOn(t, app, 3, arch.FSL, true))
	if err != nil {
		t.Fatal(err)
	}
	// The CA both shortens the serialization code and runs it on a
	// cheaper engine, so the dynamic share must drop.
	if ca.DynamicPJ >= pe.DynamicPJ {
		t.Fatalf("CA dynamic %v should be below PE dynamic %v", ca.DynamicPJ, pe.DynamicPJ)
	}
}

func TestOfExecutionLongerPeriodMoreStatic(t *testing.T) {
	app := pipelineApp(t)
	m := mapOn(t, app, 2, arch.FSL, false)
	short, err := DefaultModel().OfExecution(m, 10, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	long, err := DefaultModel().OfExecution(m, 10, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if long.StaticPJ <= short.StaticPJ {
		t.Fatalf("static energy must grow with the period: %v vs %v", long.StaticPJ, short.StaticPJ)
	}
	if long.DynamicPJ != short.DynamicPJ || long.CommPJ != short.CommPJ {
		t.Fatalf("dynamic/comm shares are per-iteration and must not depend on the period")
	}
	if _, err := DefaultModel().OfExecution(m, 0, 100); err == nil {
		t.Fatal("zero iterations must fail")
	}
}

func TestPerturbedConstantShiftsTotal(t *testing.T) {
	app := pipelineApp(t)
	m := mapOn(t, app, 2, arch.FSL, false)
	base, err := DefaultModel().OfMapping(m)
	if err != nil {
		t.Fatal(err)
	}
	mod := DefaultModel()
	mod.PEDynamicPJPerCycle += 1
	pert, err := mod.OfMapping(m)
	if err != nil {
		t.Fatal(err)
	}
	if pert.TotalPJ <= base.TotalPJ {
		t.Fatalf("raising the PE constant must raise the total: %v vs %v", pert.TotalPJ, base.TotalPJ)
	}
}
