package buffer

import (
	"strings"
	"testing"

	"mamps/internal/sdf"
	"mamps/internal/statespace"
)

// chain builds a 1->1 chain a(ta) -> b(tb) with no back-pressure (buffer
// sizing must add it).
func chain(ta, tb int64) *sdf.Graph {
	g := sdf.NewGraph("chain")
	a := g.AddActor("a", ta)
	b := g.AddActor("b", tb)
	a.MaxConcurrent = 1
	b.MaxConcurrent = 1
	g.Connect(a, b, 1, 1, 0)
	return g
}

func TestLowerBounds(t *testing.T) {
	g := sdf.NewGraph("lb")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.Connect(a, b, 3, 2, 0) // bound = 3+2-gcd(3,2)=4
	g.Connect(a, b, 1, 1, 7) // bound = max(1+1-1, 7) = 7
	g.AddStateChannel(a)     // self-loop: unbounded marker 0
	d := LowerBounds(g)
	if d[0] != 4 {
		t.Errorf("bound ch0 = %d, want 4", d[0])
	}
	if d[1] != 7 {
		t.Errorf("bound ch1 = %d, want 7", d[1])
	}
	if d[2] != 0 {
		t.Errorf("bound self-loop = %d, want 0", d[2])
	}
}

func TestApplyAddsSpaceChannels(t *testing.T) {
	g := chain(2, 3)
	d := Distribution{2}
	bg, space := Apply(g, d)
	if bg.NumChannels() != 2 {
		t.Fatalf("bounded graph channels = %d, want 2", bg.NumChannels())
	}
	if space[0] < 0 {
		t.Fatal("space channel not recorded")
	}
	sc := bg.Channel(space[0])
	if sc.Src != g.ActorByName("b").ID || sc.Dst != g.ActorByName("a").ID {
		t.Error("space channel direction wrong")
	}
	if sc.InitialTokens != 2 {
		t.Errorf("space tokens = %d, want capacity 2", sc.InitialTokens)
	}
	// Original untouched.
	if g.NumChannels() != 1 {
		t.Error("Apply modified the original graph")
	}
}

func TestApplyPanicsBelowInitialTokens(t *testing.T) {
	g := sdf.NewGraph("p")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.Connect(a, b, 1, 1, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Apply(g, Distribution{3})
}

func TestEvaluateChain(t *testing.T) {
	g := chain(2, 3)
	// Capacity 1: fully serialized handshake: period 5.
	thr, err := Evaluate(g, Distribution{1}, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if thr.Cmp(sdf.Rate{Firings: 1, Q: 1, Period: 5}) != 0 {
		t.Fatalf("cap=1 throughput = %+v, want 1/5", thr)
	}
	// Capacity 2: pipelined, bottleneck b: period 3.
	thr2, err := Evaluate(g, Distribution{2}, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if thr2.Cmp(sdf.Rate{Firings: 1, Q: 1, Period: 3}) != 0 {
		t.Fatalf("cap=2 throughput = %+v, want 1/3", thr2)
	}
}

func TestMinimizeMeetsTarget(t *testing.T) {
	g := chain(2, 3)
	d, thr, err := Minimize(g, 1.0/3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !thr.Meets(1.0 / 3) {
		t.Fatalf("throughput %+v below target", thr)
	}
	if d[0] != 2 {
		t.Fatalf("capacity = %d, want minimal 2", d[0])
	}
}

// TestMinimizeMeetsTargetExactly: a target a hair above a reachable
// throughput (capacity 1 gives exactly 1/5) is not met by it; an
// absolute 1e-12 tolerance would call it met.
func TestMinimizeMeetsTargetExactly(t *testing.T) {
	g := chain(2, 3)
	target := 0.2 + 5e-13
	d, thr, err := Minimize(g, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !thr.Meets(target) || thr.Float() < target {
		t.Fatalf("achieved %v below target %v", thr.Float(), target)
	}
	if d[0] != 2 {
		t.Fatalf("capacity = %d, want 2 (1/3 is the next throughput)", d[0])
	}
}

func TestMinimizeAlreadyMet(t *testing.T) {
	g := chain(2, 3)
	d, thr, err := Minimize(g, 0.1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lb := LowerBounds(g)
	if d[0] != lb[0] {
		t.Fatalf("capacity grew to %d though lower bound suffices", d[0])
	}
	if !thr.Meets(0.1) {
		t.Fatalf("throughput = %+v", thr)
	}
}

func TestMinimizeUnreachableTarget(t *testing.T) {
	g := chain(2, 3)
	// Max possible is 1/3 (bottleneck actor b with MaxConcurrent 1): the
	// plateau rule gives up long before the step bound.
	_, _, err := Minimize(g, 0.9, Options{})
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("err = %v, want the unreachable-target error", err)
	}
}

func TestMinimizeMultiRate(t *testing.T) {
	g := sdf.NewGraph("mr")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 2)
	a.MaxConcurrent = 1
	b.MaxConcurrent = 1
	g.Connect(a, b, 3, 2, 0)
	// q = (2, 3). Bottleneck: b fires 3 times per iteration at 2 cycles =
	// 6 cycles/iteration -> max 1/6.
	d, thr, err := Minimize(g, 1.0/6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !thr.Meets(1.0 / 6) {
		t.Fatalf("thr = %+v", thr)
	}
	if d[0] < 4 {
		t.Fatalf("capacity %d below structural lower bound", d[0])
	}
}

func TestDistributionHelpers(t *testing.T) {
	g := sdf.NewGraph("h")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	c1 := g.Connect(a, b, 1, 1, 0)
	c1.TokenSize = 8
	c2 := g.Connect(a, b, 1, 1, 0)
	c2.TokenSize = 0 // defaults to 4 in TotalBytes
	d := Distribution{3, 2}
	if d.Total() != 5 {
		t.Errorf("Total = %d", d.Total())
	}
	if got := d.TotalBytes(g); got != 3*8+2*4 {
		t.Errorf("TotalBytes = %d, want 32", got)
	}
	cl := d.Clone()
	cl[0] = 99
	if d[0] == 99 {
		t.Error("Clone aliases storage")
	}
}

func TestParetoMonotone(t *testing.T) {
	g := chain(2, 3)
	pts, err := Pareto(g, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 2 {
		t.Fatalf("expected at least 2 Pareto points, got %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Throughput.Cmp(pts[i-1].Throughput) <= 0 {
			t.Errorf("Pareto not strictly improving at %d: %v -> %v", i, pts[i-1].Throughput, pts[i].Throughput)
		}
		if pts[i].TotalTokens <= pts[i-1].TotalTokens {
			t.Errorf("Pareto storage not increasing at %d", i)
		}
	}
}

// Property: increasing any capacity never decreases throughput
// (monotonicity of buffer sizing).
func TestMonotonicityProperty(t *testing.T) {
	g := sdf.NewGraph("mono")
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 3)
	c := g.AddActor("c", 1)
	for _, x := range g.Actors() {
		x.MaxConcurrent = 1
	}
	g.Connect(a, b, 2, 1, 0)
	g.Connect(b, c, 1, 2, 0)
	g.Connect(c, a, 1, 1, 1)
	base := LowerBounds(g)
	prev, err := Evaluate(g, base, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < g.NumChannels(); ch++ {
		if g.Channel(sdf.ChannelID(ch)).IsSelfLoop() {
			continue
		}
		for inc := 1; inc <= 4; inc++ {
			d := base.Clone()
			d[ch] += inc
			thr, err := Evaluate(g, d, statespace.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if thr.Cmp(prev) < 0 {
				t.Fatalf("increasing channel %d by %d decreased throughput %v -> %v", ch, inc, prev, thr)
			}
		}
	}
}

func TestEvaluateWithSchedule(t *testing.T) {
	g := chain(2, 3)
	a := g.ActorByName("a")
	b := g.ActorByName("b")
	thr, err := Evaluate(g, Distribution{2}, statespace.Options{
		Schedules: []statespace.Schedule{{Tile: "t", Entries: []sdf.ActorID{a.ID, b.ID}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One tile: fully sequential, period 5.
	if thr.Cmp(sdf.Rate{Firings: 1, Q: 1, Period: 5}) != 0 {
		t.Fatalf("scheduled throughput = %+v, want 1/5", thr)
	}
}
