package solver

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/energy"
	"mamps/internal/mapping"
	"mamps/internal/sdf"
)

// chainApp builds a linear pipeline with the given WCETs.
func chainApp(t *testing.T, name string, wcets ...int64) *appmodel.App {
	t.Helper()
	g := sdf.NewGraph(name)
	var prev *sdf.Actor
	for i, w := range wcets {
		a := g.AddActor(fmt.Sprintf("a%d", i), w)
		if prev != nil {
			c := g.Connect(prev, a, 1, 1, 0)
			c.TokenSize = 16
		}
		prev = a
	}
	return implAll(t, appmodel.New(name, g))
}

// diamondApp builds a 4-actor fork-join: src → (left, right) → sink,
// with multirate edges so the repetition vector is not all-ones.
func diamondApp(t *testing.T) *appmodel.App {
	t.Helper()
	g := sdf.NewGraph("diamond")
	src := g.AddActor("src", 120)
	left := g.AddActor("left", 300)
	right := g.AddActor("right", 90)
	sink := g.AddActor("sink", 60)
	g.Connect(src, left, 1, 1, 0).TokenSize = 16
	g.Connect(src, right, 2, 1, 0).TokenSize = 8
	g.Connect(left, sink, 1, 1, 0).TokenSize = 16
	g.Connect(right, sink, 1, 2, 0).TokenSize = 8
	return implAll(t, appmodel.New("diamond", g))
}

func implAll(t *testing.T, app *appmodel.App) *appmodel.App {
	t.Helper()
	for _, a := range app.Graph.Actors() {
		app.AddImpl(a, appmodel.Impl{PE: arch.MicroBlaze, WCET: a.ExecTime, InstrMem: 2048, DataMem: 1024})
	}
	return app
}

func platform(t *testing.T, tiles int, ic arch.InterconnectKind) *arch.Platform {
	t.Helper()
	p, err := arch.DefaultTemplate().Generate(fmt.Sprintf("p%d%s", tiles, ic), tiles, ic)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// bruteForce enumerates every actor→tile assignment, verifies each one
// with the same mapping.Map path the solver uses, and returns the best
// throughput.
func bruteForce(t *testing.T, app *appmodel.App, plat *arch.Platform) float64 {
	t.Helper()
	actors := app.Graph.Actors()
	nTiles := len(plat.Tiles)

	var best float64
	assign := make([]int, len(actors))
	for {
		fb := make(map[string]int, len(actors))
		for i, a := range actors {
			fb[a.Name] = assign[i]
		}
		m, err := mapping.Map(app, plat, mapping.Options{FixedBinding: fb})
		if err == nil && !m.Analysis.Deadlocked && m.Analysis.Throughput > best {
			best = m.Analysis.Throughput
		}
		// Next assignment in base-nTiles.
		i := 0
		for ; i < len(assign); i++ {
			assign[i]++
			if assign[i] < nTiles {
				break
			}
			assign[i] = 0
		}
		if i == len(assign) {
			break
		}
	}
	return best
}

// TestSolverMatchesExhaustive is the equivalence check: for small graphs
// on 2–3 tiles the branch-and-bound must return exactly the optimal
// throughput that brute-force enumeration over all tile^actor bindings
// finds, on both interconnect kinds.
func TestSolverMatchesExhaustive(t *testing.T) {
	cases := []struct {
		name  string
		app   *appmodel.App
		tiles int
		ic    arch.InterconnectKind
	}{
		{"chain3-2fsl", chainApp(t, "c3", 100, 200, 100), 2, arch.FSL},
		{"chain3-3fsl", chainApp(t, "c3b", 100, 200, 100), 3, arch.FSL},
		{"chain4-3fsl", chainApp(t, "c4", 50, 400, 120, 80), 3, arch.FSL},
		{"diamond-3fsl", diamondApp(t), 3, arch.FSL},
		{"chain3-3noc", chainApp(t, "c3n", 100, 200, 100), 3, arch.NoC},
		{"diamond-2noc", diamondApp(t), 2, arch.NoC},
		{"chain6-2fsl", chainApp(t, "c6", 60, 250, 90, 90, 140, 40), 2, arch.FSL},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plat := platform(t, tc.tiles, tc.ic)
			wantBest := bruteForce(t, tc.app, plat)
			if wantBest <= 0 {
				t.Fatal("brute force found no feasible binding; test case is broken")
			}

			res, err := Solve(context.Background(), tc.app, plat, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Best == nil {
				t.Fatal("solver found no binding")
			}
			if res.Best.Throughput != wantBest {
				t.Fatalf("solver best throughput %.9g, exhaustive %.9g", res.Best.Throughput, wantBest)
			}
		})
	}
}

// TestSolverDeterministic pins the bit-identical contract: two solves of
// the same instance give the same best binding, throughput, energy and
// search statistics, byte for byte.
func TestSolverDeterministic(t *testing.T) {
	app := diamondApp(t)
	plat := platform(t, 3, arch.FSL)
	run := func() []byte {
		res, err := Solve(context.Background(), app, plat, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best == nil {
			t.Fatal("solver found no binding")
		}
		b, err := json.Marshal(struct {
			Binding    map[string]int
			Throughput float64
			Energy     energy.Report
			Stats      Stats
		}{res.Best.Binding, res.Best.Throughput, res.Best.Energy, res.Stats})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("two solves differ:\n%s\n%s", a, b)
	}
}

// TestSolverPrunes checks the bound actually cuts the tree: the solver
// must expand strictly fewer nodes than the full assignment tree holds.
func TestSolverPrunes(t *testing.T) {
	app := chainApp(t, "c5", 60, 250, 90, 140, 40)
	plat := platform(t, 3, arch.FSL)
	res, err := Solve(context.Background(), app, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Full tree: 1 + 3 + 3² + 3³ + 3⁴ internal nodes for 5 actors × 3 tiles.
	full := int64(1 + 3 + 9 + 27 + 81)
	if res.Stats.NodesExpanded >= full {
		t.Fatalf("no pruning: expanded %d of %d exhaustive nodes", res.Stats.NodesExpanded, full)
	}
	if res.Stats.NodesPruned == 0 {
		t.Fatal("expected at least one pruned subtree")
	}
}

// TestSolverNodeBudget: a tiny budget stops the search but still returns
// the greedy-seeded incumbent and flags the truncation.
func TestSolverNodeBudget(t *testing.T) {
	app := chainApp(t, "c5b", 60, 250, 90, 140, 40)
	plat := platform(t, 3, arch.FSL)
	res, err := Solve(context.Background(), app, plat, Options{NodeBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.BudgetExhausted {
		t.Fatal("budget of 2 nodes must be exhausted")
	}
	if res.Best == nil {
		t.Fatal("greedy seed should provide an incumbent even under a tiny budget")
	}
	if res.Stats.NodesExpanded > 2 {
		t.Fatalf("expanded %d nodes past the budget", res.Stats.NodesExpanded)
	}
}

// TestSolverCancellation: a cancelled context aborts the search and
// reports the context error.
func TestSolverCancellation(t *testing.T) {
	app := chainApp(t, "c4c", 100, 200, 100, 50)
	plat := platform(t, 3, arch.FSL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Solve(ctx, app, plat, Options{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSolverNeverWorseThanGreedy: the greedy seed guarantees the solver
// result is at least the greedy mapping's throughput.
func TestSolverNeverWorseThanGreedy(t *testing.T) {
	app := diamondApp(t)
	plat := platform(t, 3, arch.FSL)
	greedy, err := mapping.Map(app, plat, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), app, plat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Throughput < greedy.Analysis.Throughput {
		t.Fatalf("solver %.9g below greedy %.9g", res.Best.Throughput, greedy.Analysis.Throughput)
	}
}

// TestSolverRejectsFixedBinding: the solver owns the binding.
func TestSolverRejectsFixedBinding(t *testing.T) {
	app := chainApp(t, "c2", 100, 100)
	plat := platform(t, 2, arch.FSL)
	_, err := Solve(context.Background(), app, plat, Options{
		MapOptions: mapping.Options{FixedBinding: map[string]int{"a0": 0, "a1": 0}},
	})
	if err == nil {
		t.Fatal("FixedBinding must be rejected")
	}
}
