package statespace

import (
	"strings"
	"testing"

	"mamps/internal/sdf"
)

// TestPrologueExecutesOnce verifies that the prologue runs exactly once
// before the cyclic body: a two-actor system where the consumer's first
// firing is covered by an initial token, so its schedule body demands one
// producer handoff per firing but the first pass skips it.
func TestPrologueExecutesOnce(t *testing.T) {
	g := sdf.NewGraph("prol")
	p := g.AddActor("prod", 10)
	c := g.AddActor("cons", 10)
	g.Connect(p, c, 1, 1, 1) // one initial token
	g.Connect(c, p, 1, 1, 1) // space: capacity 2 total
	// Tile schedules: producer alone; consumer alone. Body [cons] works
	// with or without prologue here; to exercise the prologue path give
	// the consumer a prologue identical to one body pass.
	r, err := Analyze(g, Options{Schedules: []Schedule{
		{Tile: "t0", Entries: []sdf.ActorID{p.ID}},
		{Tile: "t1", Prologue: []sdf.ActorID{c.ID}, Entries: []sdf.ActorID{c.ID}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked {
		t.Fatal("deadlock")
	}
	// Steady state: both fire every 10 cycles (pipelined by the two
	// tokens in the cycle).
	if r.Throughput < 0.0999 || r.Throughput > 0.1001 {
		t.Fatalf("throughput = %v, want 0.1", r.Throughput)
	}
}

// TestPrologueAvoidsStartupDeadlock builds the situation the prologue
// exists for: a consumer whose body starts with a "deserialization"
// actor that needs data the producer only sends later, while an initial
// token would let the consumer's main actor fire immediately. Without the
// prologue the schedule deadlocks; with it, it runs.
func TestPrologueAvoidsStartupDeadlock(t *testing.T) {
	g := sdf.NewGraph("startup")
	// prod -> d1 -> cons, with cons -> prod feedback. The initial token
	// sits on d1->cons (as comm.Expand places it at the destination
	// buffer).
	prod := g.AddActor("prod", 5)
	d1 := g.AddActor("d1", 2)
	cons := g.AddActor("cons", 5)
	g.Connect(prod, d1, 1, 1, 0)
	g.Connect(d1, cons, 1, 1, 1)
	// Feedback: prod may run one iteration ahead.
	g.Connect(cons, prod, 1, 1, 1)

	// Without prologue: body [d1, cons] blocks at d1 (no data until prod
	// fires, but prod needs cons's feedback... here prod has a token, so
	// build the blocking variant: give prod's tile the schedule [prod]
	// and the consumer tile [d1, cons, d1] — an inconsistent body that
	// fires d1 twice; instead demonstrate with the consistent case below.
	bad, err := Analyze(g, Options{Schedules: []Schedule{
		{Tile: "t0", Entries: []sdf.ActorID{prod.ID}},
		{Tile: "t1", Entries: []sdf.ActorID{d1.ID, d1.ID, cons.ID}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !bad.Deadlocked {
		t.Fatalf("expected the over-eager schedule to deadlock, got %+v", bad)
	}

	// With the prologue, the first pass consumes the initial token and
	// the steady-state body deserializes twice per... (kept consistent:
	// body fires d1 once per cons).
	good, err := Analyze(g, Options{Schedules: []Schedule{
		{Tile: "t0", Entries: []sdf.ActorID{prod.ID}},
		{Tile: "t1", Prologue: []sdf.ActorID{cons.ID, d1.ID}, Entries: []sdf.ActorID{d1.ID, cons.ID}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if good.Deadlocked || good.Throughput <= 0 {
		t.Fatalf("prologue schedule should run: %+v", good)
	}
}

func TestPrologueInStateKey(t *testing.T) {
	// A schedule whose prologue equals its body must still terminate
	// (the prologue/body distinction is part of the state, so the
	// recurrence detector does not confuse phase-equal states).
	g := sdf.NewGraph("key")
	a := g.AddActor("a", 3)
	g.Connect(a, a, 1, 1, 1)
	r, err := Analyze(g, Options{Schedules: []Schedule{
		{Tile: "t", Prologue: []sdf.ActorID{a.ID}, Entries: []sdf.ActorID{a.ID}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput < 1.0/3-1e-9 || r.Throughput > 1.0/3+1e-9 {
		t.Fatalf("throughput = %v", r.Throughput)
	}
}

func TestPrologueValidation(t *testing.T) {
	g := sdf.NewGraph("v")
	a := g.AddActor("a", 1)
	g.Connect(a, a, 1, 1, 1)
	// Unknown actor in prologue is rejected.
	if _, err := Analyze(g, Options{Schedules: []Schedule{
		{Tile: "t", Prologue: []sdf.ActorID{99}, Entries: []sdf.ActorID{a.ID}},
	}}); err == nil {
		t.Fatal("expected error for unknown prologue actor")
	}
}

func TestMaxTokensTracked(t *testing.T) {
	g := sdf.NewGraph("occ")
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 3)
	data := g.Connect(a, b, 1, 1, 0)
	space := g.Connect(b, a, 1, 1, 3)
	r, err := Analyze(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MaxTokens) != 2 {
		t.Fatalf("MaxTokens = %v", r.MaxTokens)
	}
	// Data + space tokens are conserved at 3, so neither side can exceed
	// the capacity; and a (faster) fills the buffer, so the data channel
	// peaks at less than or equal to 3 and at least 1.
	if r.MaxTokens[data.ID] < 1 || r.MaxTokens[data.ID] > 3 {
		t.Errorf("data peak = %d", r.MaxTokens[data.ID])
	}
	if r.MaxTokens[space.ID] > 3 {
		t.Errorf("space peak = %d exceeds conservation", r.MaxTokens[space.ID])
	}
}

func TestDeadlockReportNamesBlockedChannel(t *testing.T) {
	g := sdf.NewGraph("rep")
	a := g.AddActor("alpha", 1)
	b := g.AddActor("beta", 1)
	c1 := g.Connect(a, b, 1, 1, 0)
	c1.Name = "starved"
	g.Connect(b, a, 1, 1, 1)
	// Schedule beta first: it waits forever for the starved channel.
	r, err := Analyze(g, Options{Schedules: []Schedule{
		{Tile: "t0", Entries: []sdf.ActorID{b.ID, a.ID}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Deadlocked {
		t.Fatal("expected deadlock")
	}
	for _, want := range []string{"t0", "beta", "starved"} {
		if !strings.Contains(r.DeadlockReport, want) {
			t.Errorf("report missing %q:\n%s", want, r.DeadlockReport)
		}
	}
}
