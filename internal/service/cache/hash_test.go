package cache

import (
	"math/rand"
	"testing"

	"mamps/internal/sdf"
)

// graphSpec describes a graph independently of declaration order, so a
// test can build the same graph with actors and channels added in any
// permutation.
type actorSpec struct {
	name    string
	exec    int64
	maxConc int
}

type chanSpec struct {
	src, dst         string
	srcRate, dstRate int
	tokens           int
	tokenSize        int
}

func buildGraph(actors []actorSpec, chans []chanSpec, actorPerm, chanPerm []int) *sdf.Graph {
	g := sdf.NewGraph("spec")
	for _, i := range actorPerm {
		s := actors[i]
		a := g.AddActor(s.name, s.exec)
		a.MaxConcurrent = s.maxConc
	}
	for _, i := range chanPerm {
		s := chans[i]
		ch := g.Connect(g.ActorByName(s.src), g.ActorByName(s.dst), s.srcRate, s.dstRate, s.tokens)
		ch.TokenSize = s.tokenSize
	}
	return g
}

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// TestGraphKeyInvariantUnderReordering is the property test required by
// the cache design: the canonical graph hash must not depend on the
// order actors and channels were declared in. It builds the paper's
// Figure 2 shape (plus extras that stress the multiset hashing, such as
// parallel channels with distinct attributes) under seeded random
// permutations of both declaration orders.
func TestGraphKeyInvariantUnderReordering(t *testing.T) {
	actors := []actorSpec{
		{"A", 40, 1}, {"B", 25, 2}, {"C", 30, 1}, {"D", 25, 1},
	}
	chans := []chanSpec{
		{"A", "B", 2, 1, 0, 4},
		{"A", "C", 1, 1, 0, 4},
		{"B", "C", 1, 2, 0, 8},
		{"C", "D", 1, 1, 1, 4},
		// Parallel channels between the same endpoints, differing only in
		// one attribute each — the multiset must keep them distinct.
		{"A", "B", 2, 1, 0, 16},
		{"A", "B", 2, 1, 3, 4},
		{"A", "A", 1, 1, 1, 0}, // self-loop
	}

	ref := GraphKey(buildGraph(actors, chans, identity(len(actors)), identity(len(chans))))

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		ap := rng.Perm(len(actors))
		cp := rng.Perm(len(chans))
		g := buildGraph(actors, chans, ap, cp)
		if got := GraphKey(g); got != ref {
			t.Fatalf("trial %d: key changed under reordering\nactor perm %v, chan perm %v\n got %s\nwant %s",
				trial, ap, cp, got, ref)
		}
	}
}

// TestGraphKeySensitive checks the converse: any semantic change to the
// graph must change the key.
func TestGraphKeySensitive(t *testing.T) {
	base := []chanSpec{{"A", "B", 2, 1, 0, 4}}
	actors := []actorSpec{{"A", 40, 1}, {"B", 25, 1}}
	ref := GraphKey(buildGraph(actors, base, identity(2), identity(1)))

	mutations := []struct {
		name   string
		actors []actorSpec
		chans  []chanSpec
	}{
		{"exec time", []actorSpec{{"A", 41, 1}, {"B", 25, 1}}, base},
		{"concurrency", []actorSpec{{"A", 40, 2}, {"B", 25, 1}}, base},
		{"actor name", []actorSpec{{"A2", 40, 1}, {"B", 25, 1}}, []chanSpec{{"A2", "B", 2, 1, 0, 4}}},
		{"src rate", actors, []chanSpec{{"A", "B", 3, 1, 0, 4}}},
		{"dst rate", actors, []chanSpec{{"A", "B", 2, 2, 0, 4}}},
		{"initial tokens", actors, []chanSpec{{"A", "B", 2, 1, 1, 4}}},
		{"token size", actors, []chanSpec{{"A", "B", 2, 1, 0, 8}}},
		{"direction", actors, []chanSpec{{"B", "A", 2, 1, 0, 4}}},
		{"extra channel", actors, []chanSpec{{"A", "B", 2, 1, 0, 4}, {"A", "B", 2, 1, 0, 4}}},
	}
	for _, m := range mutations {
		g := buildGraph(m.actors, m.chans, identity(len(m.actors)), identity(len(m.chans)))
		if GraphKey(g) == ref {
			t.Errorf("mutation %q did not change the key", m.name)
		}
	}
}

// TestChannelNamesExcluded: auto-generated channel names encode the
// declaration counter, so they must not leak into the key.
func TestChannelNamesExcluded(t *testing.T) {
	mk := func(name string) *sdf.Graph {
		g := sdf.NewGraph("g")
		a := g.AddActor("A", 10)
		b := g.AddActor("B", 20)
		g.Connect(a, b, 1, 1, 0).Name = name
		return g
	}
	if GraphKey(mk("first")) != GraphKey(mk("second")) {
		t.Fatal("channel name influenced the graph key")
	}
}
