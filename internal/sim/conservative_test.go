package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/mapping"
	"mamps/internal/sdf"
	"mamps/internal/wcet"
)

// TestConservativenessProperty is the executable form of the paper's
// central claim over a randomized design space: for random applications
// (chains and diamonds with random rates, token sizes and execution
// times), random platforms (tile count, interconnect, CA) and random
// bindings, the platform simulation achieves at least the worst-case
// throughput bound of the binding-aware analysis.
func TestConservativenessProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		app, names := randomApp(r)
		tiles := 1 + r.Intn(len(names))
		kind := arch.FSL
		if r.Intn(2) == 1 {
			kind = arch.NoC
		}
		if kind == arch.NoC && tiles < 2 {
			tiles = 2
		}
		useCA := r.Intn(3) == 0
		plat, err := arch.DefaultTemplate().Generate("p", tiles, kind)
		if err != nil {
			t.Fatal(err)
		}
		// Randomly equip individual tiles with communication assists
		// (mixed PE/CA platforms must stay conservative too).
		for _, tl := range plat.Tiles {
			if r.Intn(4) == 0 {
				tl.HasCA = true
			}
		}
		// Random binding (peripheral-free app, so any tile works).
		binding := make(map[string]int, len(names))
		for _, n := range names {
			binding[n] = r.Intn(tiles)
		}
		m, err := mapping.Map(app, plat, mapping.Options{FixedBinding: binding, UseCA: useCA})
		if err != nil {
			// Some random configurations are legitimately infeasible
			// (memory, NoC wires); skip those.
			continue
		}
		res, err := Run(m, Options{
			Iterations: 40,
			RefActor:   names[len(names)-1],
			CheckWCET:  true,
		})
		if err != nil {
			t.Fatalf("trial %d (%d tiles, %v, ca=%v, binding=%v): %v",
				trial, tiles, kind, useCA, binding, err)
		}
		bound := m.Analysis.Throughput
		if res.Throughput.Cmp(bound) < 0 {
			t.Fatalf("trial %d (%d tiles, %v, ca=%v, binding=%v): measured %+v below bound %+v (ratio %.4f)",
				trial, tiles, kind, useCA, binding,
				res.Throughput, bound, res.Throughput.Float()/bound.Float())
		}
	}
}

// randomApp builds a random chain or diamond application with executable
// actors charging their full WCET (the worst case, where the bound must
// be tightest).
func randomApp(r *rand.Rand) (*appmodel.App, []string) {
	n := 3 + r.Intn(3)
	g := sdf.NewGraph("rand")
	names := make([]string, n)
	actors := make([]*sdf.Actor, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("a%d", i)
		actors[i] = g.AddActor(names[i], int64(50+r.Intn(500)))
	}
	connect := func(a, b *sdf.Actor) {
		// Random consistent rates via a common token multiple.
		k := 1 + r.Intn(3)
		j := 1 + r.Intn(3)
		c := g.Connect(a, b, k, j, 0)
		c.TokenSize = 4 * (1 + r.Intn(40))
		c.Name = fmt.Sprintf("%s_%s", a.Name, b.Name)
	}
	// Chain backbone.
	for i := 0; i+1 < n; i++ {
		connect(actors[i], actors[i+1])
	}
	// Optional diamond shortcut with consistent rates: derive from the
	// repetition vector to stay consistent.
	app := appmodel.New("rand", g)
	q, err := g.RepetitionVector()
	if err == nil && n >= 4 && r.Intn(2) == 0 {
		i, j := 0, n-1
		d := gcd64(q[actors[i].ID], q[actors[j].ID])
		c := g.Connect(actors[i], actors[j], int(q[actors[j].ID]/d), int(q[actors[i].ID]/d), 0)
		c.TokenSize = 4 * (1 + r.Intn(10))
		c.Name = "shortcut"
	}
	for idx, a := range g.Actors() {
		wcetC := a.ExecTime
		outRates := make([]int, len(a.Out()))
		for pi, cid := range a.Out() {
			outRates[pi] = g.Channel(cid).SrcRate
		}
		app.AddImpl(a, appmodel.Impl{
			PE: arch.MicroBlaze, WCET: wcetC, InstrMem: 1024, DataMem: 512,
			Fire: func(m *wcet.Meter, in [][]appmodel.Token) ([][]appmodel.Token, error) {
				m.Add(wcetC)
				out := make([][]appmodel.Token, len(outRates))
				for pi, rate := range outRates {
					out[pi] = make([]appmodel.Token, rate)
					for k := range out[pi] {
						out[pi][k] = idx
					}
				}
				return out, nil
			},
		})
	}
	return app, names
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
