package dse

import (
	"fmt"
	"testing"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/mjpeg"
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

func TestSweepBasic(t *testing.T) {
	app := pipelineApp(t)
	pts, err := Sweep(app, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Tiles 1..3, FSL always, NoC for >= 2 tiles: 3 + 2 = 5 points.
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}
	for _, p := range pts {
		if p.Err != nil {
			t.Errorf("%s: %v", p.Label(), p.Err)
			continue
		}
		if p.Throughput.IsZero() || p.Area.Slices <= 0 {
			t.Errorf("%s: throughput %v area %v", p.Label(), p.Throughput, p.Area)
		}
	}
}

func TestSweepMoreTilesMoreAreaMoreThroughput(t *testing.T) {
	app := pipelineApp(t)
	pts, err := Sweep(app, Config{Interconnects: []arch.InterconnectKind{arch.FSL}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Area strictly increases with tile count.
	for i := 1; i < len(pts); i++ {
		if pts[i].Area.Slices <= pts[i-1].Area.Slices {
			t.Errorf("area not increasing: %v -> %v", pts[i-1].Area, pts[i].Area)
		}
	}
	// Three tiles (fully pipelined) beats one tile (sequential).
	if pts[2].Throughput.Cmp(pts[0].Throughput) <= 0 {
		t.Errorf("3 tiles %v should beat 1 tile %v", pts[2].Throughput, pts[0].Throughput)
	}
}

func TestSweepWithCA(t *testing.T) {
	app := pipelineApp(t)
	pts, err := Sweep(app, Config{MinTiles: 3, MaxTiles: 3, Interconnects: []arch.InterconnectKind{arch.FSL}, WithCA: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	var pe, ca Point
	for _, p := range pts {
		if p.UseCA {
			ca = p
		} else {
			pe = p
		}
	}
	if ca.Throughput.Cmp(pe.Throughput) < 0 {
		t.Errorf("CA %v should not be below PE %v", ca.Throughput, pe.Throughput)
	}
	if ca.Area.Slices <= pe.Area.Slices {
		t.Errorf("CA area %v should exceed PE area %v", ca.Area, pe.Area)
	}
	if ca.Label() != "3xfsl+ca" {
		t.Errorf("label = %s", ca.Label())
	}
}

func TestParetoFront(t *testing.T) {
	app := pipelineApp(t)
	pts, err := Sweep(app, Config{})
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFront(pts)
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
	for i := 1; i < len(front); i++ {
		if front[i].Area.Slices < front[i-1].Area.Slices {
			t.Error("front not sorted by area")
		}
	}
	// Three-objective mutual non-domination: no front member may be at
	// least as good everywhere and strictly better somewhere.
	dominates := func(a, b Point) bool {
		geq := a.Throughput.Cmp(b.Throughput) >= 0 && a.Area.Slices <= b.Area.Slices && a.Energy.TotalPJ <= b.Energy.TotalPJ
		gt := a.Throughput.Cmp(b.Throughput) > 0 || a.Area.Slices < b.Area.Slices || a.Energy.TotalPJ < b.Energy.TotalPJ
		return geq && gt
	}
	for i := range front {
		for j := range front {
			if i != j && dominates(front[i], front[j]) {
				t.Errorf("front member %s dominates front member %s", front[i].Label(), front[j].Label())
			}
		}
	}
	// Every dropped feasible point must be dominated by a front member.
	for _, p := range pts {
		if p.Err != nil || p.Throughput.IsZero() {
			continue
		}
		onFront := false
		for _, f := range front {
			if f.Label() == p.Label() {
				onFront = true
			}
		}
		if onFront {
			continue
		}
		covered := false
		for _, f := range front {
			if dominates(f, p) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("dropped point %s is not dominated by any front member", p.Label())
		}
	}
}

// mkPoint hand-builds a feasible point with throughput firings/(q·period).
func mkPoint(tiles int, firings, q, period int64, pj float64, slices int) Point {
	p := Point{Tiles: tiles, Interconnect: arch.FSL, Throughput: sdf.Rate{Firings: firings, Q: q, Period: period}}
	p.Area.Slices = slices
	p.Energy.TotalPJ = pj
	return p
}

// TestParetoFrontEnergyDimension pins that the energy objective is live:
// a point that loses on throughput and ties on area but wins on energy
// stays on the front.
func TestParetoFrontEnergyDimension(t *testing.T) {
	pts := []Point{
		mkPoint(1, 2, 1, 1, 100, 500),
		mkPoint(2, 1, 1, 1, 50, 500), // slower, same area, but cheapest energy: on the front
		mkPoint(3, 1, 1, 2, 200, 500),
	}
	front := ParetoFront(pts)
	if len(front) != 2 {
		t.Fatalf("front size = %d, want 2 (fast point + low-energy point)", len(front))
	}
	seen := map[int]bool{}
	for _, p := range front {
		seen[p.Tiles] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("front = %v, want tiles 1 and 2", front)
	}
}

// TestSweepEnergyPopulated: every feasible point carries a positive,
// internally consistent energy report.
func TestSweepEnergyPopulated(t *testing.T) {
	app := pipelineApp(t)
	pts, err := Sweep(app, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Err != nil {
			continue
		}
		if p.Energy.TotalPJ <= 0 || p.Energy.AvgWatts <= 0 {
			t.Errorf("%s: energy not populated: %+v", p.Label(), p.Energy)
		}
	}
}

// TestSweepSolverBeatsGreedy: with the branch-and-bound binder enabled,
// every feasible point's throughput is at least the greedy point's on
// the same platform, and the search statistics are reported.
func TestSweepSolverBeatsGreedy(t *testing.T) {
	app := pipelineApp(t)
	cfg := Config{Interconnects: []arch.InterconnectKind{arch.FSL}}
	greedy, err := Sweep(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.UseSolver = true
	solved, err := Sweep(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(solved) != len(greedy) {
		t.Fatalf("point counts differ: %d vs %d", len(solved), len(greedy))
	}
	for i := range solved {
		if solved[i].Err != nil || greedy[i].Err != nil {
			continue
		}
		if solved[i].Throughput.Cmp(greedy[i].Throughput) < 0 {
			t.Errorf("%s: solver %+v below greedy %+v",
				solved[i].Label(), solved[i].Throughput, greedy[i].Throughput)
		}
		if solved[i].Solver == nil || solved[i].Solver.Verifications == 0 {
			t.Errorf("%s: solver stats missing", solved[i].Label())
		}
		if greedy[i].Solver != nil {
			t.Errorf("%s: greedy point should carry no solver stats", greedy[i].Label())
		}
	}
}

// TestSweepSolverDeterministicParallel: the solver-backed sweep is
// byte-identical across runs and worker counts.
func TestSweepSolverDeterministicParallel(t *testing.T) {
	app := pipelineApp(t)
	run := func(workers int) string {
		pts, err := Sweep(app, Config{UseSolver: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, p := range pts {
			out += p.Label()
			if p.Err != nil {
				out += ":err;"
				continue
			}
			out += fmt.Sprintf(":%+v:%d:%.12g:%d:%d;",
				p.Throughput, p.Area.Slices, p.Energy.TotalPJ,
				p.Solver.NodesExpanded, p.Solver.NodesPruned)
		}
		return out
	}
	seq := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); got != seq {
			t.Fatalf("workers=%d diverges:\n%s\n%s", w, got, seq)
		}
	}
}

func TestBest(t *testing.T) {
	app := pipelineApp(t)
	pts, err := Sweep(app, Config{Interconnects: []arch.InterconnectKind{arch.FSL}})
	if err != nil {
		t.Fatal(err)
	}
	// Any feasible target: picks the cheapest meeting it.
	target := pts[0].Throughput.Float()
	p, err := Best(pts, target)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Throughput.Meets(target) {
		t.Error("Best returned a point below target")
	}
	if _, err := Best(pts, 1.0); err == nil {
		t.Error("unreachable target should fail")
	}
}

func TestSweepRangeValidation(t *testing.T) {
	app := pipelineApp(t)
	if _, err := Sweep(app, Config{MinTiles: 5, MaxTiles: 2}); err == nil {
		t.Error("inverted range should fail")
	}
}

func TestSweepMJPEG(t *testing.T) {
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 32, 32, 1, 80, mjpeg.Sampling420)
	if err != nil {
		t.Fatal(err)
	}
	app, _, err := mjpeg.BuildApp(stream)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Sweep(app, Config{MinTiles: 1, MaxTiles: 5, Interconnects: []arch.InterconnectKind{arch.FSL}})
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFront(pts)
	if len(front) < 2 {
		t.Fatalf("MJPEG front too small: %d", len(front))
	}
	t.Logf("MJPEG Pareto front:")
	for _, p := range front {
		t.Logf("  %-8s %6d slices  %.3f MCU/Mcycle", p.Label(), p.Area.Slices, p.Throughput.Float()*1e6)
	}
}
