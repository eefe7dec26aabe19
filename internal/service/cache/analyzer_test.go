package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mamps/internal/obs"
	"mamps/internal/sdf"
	"mamps/internal/statespace"
)

type analyzeFunc = func(*sdf.Graph, statespace.Options) (statespace.Result, error)

// newAnalyzer returns a memoizing analyzer over a fresh cache of the
// given capacity, with its warm-start counters.
func newAnalyzer(capacity int) (analyzeFunc, *obs.WarmStats) {
	stats := obs.NewWarmStats(nil)
	return Analyzer(New(capacity), context.Background(), &obs.Set{Warm: stats}), stats
}

// pipeline builds a 3-actor cycle with the given WCETs.
func pipeline(wcets [3]int64, tokens int) *sdf.Graph {
	g := sdf.NewGraph("pipe3")
	a := g.AddActor("a", wcets[0])
	b := g.AddActor("b", wcets[1])
	c := g.AddActor("c", wcets[2])
	g.Connect(a, b, 1, 1, 0)
	g.Connect(b, c, 1, 1, 0)
	g.Connect(c, a, 1, 1, tokens)
	return g
}

// check runs the request through an and cold, and fails on any
// divergence.
func check(t *testing.T, an analyzeFunc, g *sdf.Graph, opt statespace.Options) statespace.Result {
	t.Helper()
	got, err := an(g, opt)
	if err != nil {
		t.Fatalf("memoized analyze: %v", err)
	}
	want, err := statespace.Analyze(g, opt)
	if err != nil {
		t.Fatalf("cold analyze: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("memoized result diverged from cold\n got %+v\nwant %+v", got, want)
	}
	return got
}

// TestMemoServesOnlyIdenticalRequests: the memo serves identical
// requests; anything else, a uniform WCET rescale included, runs cold.
func TestMemoServesOnlyIdenticalRequests(t *testing.T) {
	an, stats := newAnalyzer(8)
	want := func(exact, misses int64) {
		t.Helper()
		if stats.Exact.Value() != exact || stats.Misses.Value() != misses {
			t.Fatalf("exact/misses = %d/%d, want %d/%d",
				stats.Exact.Value(), stats.Misses.Value(), exact, misses)
		}
	}

	// Cold: first sight of the request.
	check(t, an, pipeline([3]int64{3, 5, 2}, 4), statespace.Options{})
	want(0, 1)
	// Exact: the identical request again.
	check(t, an, pipeline([3]int64{3, 5, 2}, 4), statespace.Options{})
	want(1, 1)
	// All WCETs times 7: a different request, cold.
	check(t, an, pipeline([3]int64{21, 35, 14}, 4), statespace.Options{})
	want(1, 2)
	// Different structure (token count): cold.
	check(t, an, pipeline([3]int64{3, 5, 2}, 3), statespace.Options{})
	want(1, 3)
	if stats.Bailouts.Value() != 0 {
		t.Fatalf("Bailouts = %d, want 0", stats.Bailouts.Value())
	}
}

// TestScaledWCETsRunCold: uniformly scaled WCET copies, including
// non-integer rational factors, are distinct requests; each runs cold
// and the memo never answers one with another's result.
func TestScaledWCETsRunCold(t *testing.T) {
	an, stats := newAnalyzer(8)
	base := [3]int64{6, 10, 4}
	check(t, an, pipeline(base, 2), statespace.Options{})
	factors := []struct{ p, q int64 }{{2, 1}, {3, 2}, {1, 2}, {7, 2}, {5, 1}}
	for _, f := range factors {
		w := [3]int64{base[0] * f.p / f.q, base[1] * f.p / f.q, base[2] * f.p / f.q}
		check(t, an, pipeline(w, 2), statespace.Options{})
	}
	if stats.Exact.Value() != 0 || stats.Misses.Value() != int64(1+len(factors)) {
		t.Fatalf("exact/misses = %d/%d, want 0/%d", stats.Exact.Value(), stats.Misses.Value(), 1+len(factors))
	}
}

// TestDeadlockServedOnlyToIdenticalRequest: a deadlock with rescaled
// WCETs runs cold without a bailout; the identical request gets the
// memoized deadlock verbatim.
func TestDeadlockServedOnlyToIdenticalRequest(t *testing.T) {
	an, stats := newAnalyzer(8)
	dead := func(wcet int64) *sdf.Graph {
		g := sdf.NewGraph("dead")
		a := g.AddActor("a", wcet)
		b := g.AddActor("b", wcet)
		g.Connect(a, b, 1, 1, 0)
		g.Connect(b, a, 1, 1, 0)
		return g
	}
	check(t, an, dead(1), statespace.Options{})
	// Same structure, scaled WCETs: runs cold, the deadlock report is the
	// cold kernel's own.
	check(t, an, dead(2), statespace.Options{})
	if stats.Bailouts.Value() != 0 || stats.Misses.Value() != 2 {
		t.Fatalf("bailouts/misses = %d/%d, want 0/2", stats.Bailouts.Value(), stats.Misses.Value())
	}
	// The exact tier serves deadlocks verbatim.
	check(t, an, dead(1), statespace.Options{})
	if stats.Exact.Value() != 1 {
		t.Fatalf("Exact = %d, want 1", stats.Exact.Value())
	}
}

func TestBudgetGuard(t *testing.T) {
	// A cached exploration must not satisfy a request whose MaxStates
	// budget the cold kernel would exceed.
	an, _ := newAnalyzer(8)
	g := pipeline([3]int64{3, 5, 2}, 4)
	res, err := an(g, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tight := statespace.Options{MaxStates: res.StatesExplored}
	if _, err := an(pipeline([3]int64{3, 5, 2}, 4), tight); err == nil {
		t.Fatal("memo served a result the cold kernel would refuse (budget exceeded)")
	}
	if _, err := statespace.Analyze(g, tight); err == nil {
		t.Fatal("cold kernel accepted the tight budget; test premise broken")
	}
	// One more state of budget and both succeed again.
	check(t, an, pipeline([3]int64{3, 5, 2}, 4), statespace.Options{MaxStates: res.StatesExplored + 1})
}

func TestResultIsolation(t *testing.T) {
	// Mutating a returned Result must not corrupt the memo.
	an, _ := newAnalyzer(8)
	g := pipeline([3]int64{3, 5, 2}, 4)
	first, err := an(g, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.MaxTokens {
		first.MaxTokens[i] = -1
	}
	check(t, an, pipeline([3]int64{3, 5, 2}, 4), statespace.Options{})
}

func TestEviction(t *testing.T) {
	an, stats := newAnalyzer(2)
	check(t, an, pipeline([3]int64{3, 5, 2}, 4), statespace.Options{})
	check(t, an, pipeline([3]int64{3, 5, 2}, 3), statespace.Options{})
	check(t, an, pipeline([3]int64{3, 5, 2}, 2), statespace.Options{}) // evicts the first
	// The evicted exploration is gone.
	check(t, an, pipeline([3]int64{3, 5, 2}, 4), statespace.Options{})
	if stats.Exact.Value() != 0 || stats.Misses.Value() != 4 {
		t.Fatalf("exact/misses = %d/%d, want 0/4 after eviction",
			stats.Exact.Value(), stats.Misses.Value())
	}
}

// chainGraph builds a simple pipeline with a state self-loop on the head.
func chainGraph(execTimes ...int64) *sdf.Graph {
	g := sdf.NewGraph("chain")
	var prev *sdf.Actor
	for i, et := range execTimes {
		a := g.AddActor(fmt.Sprintf("a%d", i), et)
		g.AddStateChannel(a)
		if prev != nil {
			ch := g.Connect(prev, a, 1, 1, 0)
			ch.Name = fmt.Sprintf("c%d", i)
			back := g.Connect(a, prev, 1, 1, 2)
			back.Name = fmt.Sprintf("s%d", i)
		}
		prev = a
	}
	return g
}

func TestAnalyzerMemoizesAndCancels(t *testing.T) {
	c := New(16)
	g := chainGraph(3, 5, 2)
	an := Analyzer(c, context.Background(), nil)

	r1, err := an(g, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := an(g, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Throughput != r2.Throughput || r1.Throughput.IsZero() {
		t.Fatalf("throughputs differ or zero: %v vs %v", r1.Throughput, r2.Throughput)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}

	// A cancelled context aborts an uncached analysis.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	other := chainGraph(7, 7) // different key, so no cache rescue
	if _, err := Analyzer(c, ctx, nil)(other, statespace.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// A nil cache still works (uncached, cancellable).
	if _, err := Analyzer(nil, context.Background(), nil)(other, statespace.Options{}); err != nil {
		t.Fatalf("nil-cache analyzer: %v", err)
	}
	if _, err := Analyzer(nil, ctx, nil)(other, statespace.Options{}); !errors.Is(err, statespace.ErrInterrupted) {
		t.Fatalf("cancelled nil-cache analyzer: err = %v, want statespace.ErrInterrupted", err)
	}
}

// TestAnalyzerTelemetry: explorations publish explorer counters, memo
// hits publish none, and every lookup records one "statespace" span, the
// memo's answers flagged memo=true.
func TestAnalyzerTelemetry(t *testing.T) {
	tr := obs.New()
	set := &obs.Set{Trace: tr, Explorer: obs.NewExplorerStats(nil), Warm: obs.NewWarmStats(nil)}
	an := Analyzer(New(8), context.Background(), set)
	for i := 0; i < 3; i++ {
		check(t, an, pipeline([3]int64{3, 5, 2}, 4), statespace.Options{})
	}
	if n := set.Explorer.Analyses.Value(); n != 1 {
		t.Fatalf("explorer analyses = %d, want 1", n)
	}
	if n := tr.SpanCount(); n != 3 {
		t.Fatalf("spans = %d, want 3", n)
	}
	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"memo":true`); n != 2 {
		t.Fatalf("memo spans = %d, want 2", n)
	}
	if set.Warm.Exact.Value() != 2 {
		t.Fatalf("Exact = %d, want 2", set.Warm.Exact.Value())
	}
}

// TestMemoMatchesCold is the memo's soundness table: after a prior
// analysis of a nearby request, the memo's answer to the probe must
// equal a fresh cold analysis in every Result field (DeadlockReport and
// MaxTokens included) or fail with the cold error.
func TestMemoMatchesCold(t *testing.T) {
	// cycle builds a 2-cycle; with tokens 0 it deadlocks and the report
	// names the blocked tile and channel.
	cycle := func(ch1, ch2 string, tokens int) *sdf.Graph {
		g := sdf.NewGraph("cycle")
		a := g.AddActor("a", 2)
		b := g.AddActor("b", 3)
		g.Connect(a, b, 1, 1, 0).Name = ch1
		g.Connect(b, a, 1, 1, tokens).Name = ch2
		return g
	}
	oneTile := func(tile string) statespace.Options {
		return statespace.Options{Schedules: []statespace.Schedule{{Tile: tile, Entries: []sdf.ActorID{0, 1}}}}
	}
	twoTiles := func(first, second int) statespace.Options {
		tiles := []statespace.Schedule{
			{Tile: "t0", Entries: []sdf.ActorID{0}},
			{Tile: "t1", Entries: []sdf.ActorID{1}},
		}
		return statespace.Options{Schedules: []statespace.Schedule{tiles[first], tiles[second]}}
	}
	type request struct {
		g   *sdf.Graph
		opt statespace.Options
	}
	probe, err := statespace.Analyze(cycle("x1", "x2", 1), oneTile("tileA"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name         string
		prior, probe request
	}{
		{"channel names",
			request{cycle("x1", "x2", 0), oneTile("tileA")},
			request{cycle("y1", "y2", 0), oneTile("tileA")}},
		{"tile labels",
			request{cycle("x1", "x2", 0), oneTile("tileA")},
			request{cycle("x1", "x2", 0), oneTile("tileB")}},
		{"schedule order",
			request{cycle("x1", "x2", 0), twoTiles(0, 1)},
			request{cycle("x1", "x2", 0), twoTiles(1, 0)}},
		{"names and labels together",
			request{cycle("x1", "x2", 0), oneTile("tileA")},
			request{cycle("y1", "y2", 0), oneTile("tileB")}},
		{"tile labels without a deadlock",
			request{cycle("x1", "x2", 1), oneTile("tileA")},
			request{cycle("x1", "x2", 1), oneTile("tileB")}},
		{"budget below the cached exploration",
			request{cycle("x1", "x2", 1), oneTile("tileA")},
			request{cycle("x1", "x2", 1), statespace.Options{
				Schedules: oneTile("tileA").Schedules, MaxStates: probe.StatesExplored}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			an, _ := newAnalyzer(8)
			if _, err := an(tc.prior.g, tc.prior.opt); err != nil {
				t.Fatal(err)
			}
			got, gotErr := an(tc.probe.g, tc.probe.opt)
			want, wantErr := statespace.Analyze(tc.probe.g, tc.probe.opt)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("err = %v, want the cold error %v", gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("memo answer differs from cold\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestAnalysisKeyFields: the exact key covers every field a Result
// depends on but the tile labels, which only a deadlock report prints
// (TestMemoMatchesCold covers those), and the MaxStates budget
// (TestBudgetGuard).
func TestAnalysisKeyFields(t *testing.T) {
	g := pipeline([3]int64{3, 5, 2}, 4)
	sched := statespace.Options{Schedules: []statespace.Schedule{{Tile: "t0", Entries: []sdf.ActorID{0, 1, 2}}}}
	key := analysisKey(g, sched)

	bounded := sched
	bounded.MaxStates = 99
	if analysisKey(g, bounded) != key {
		t.Error("MaxStates influenced the key")
	}
	relabeled := statespace.Options{Schedules: []statespace.Schedule{{Tile: "t1", Entries: []sdf.ActorID{0, 1, 2}}}}
	if analysisKey(g, relabeled) != key {
		t.Error("a tile label influenced the key")
	}
	mutations := map[string]func() (*sdf.Graph, statespace.Options){
		"WCETs": func() (*sdf.Graph, statespace.Options) {
			return pipeline([3]int64{6, 10, 4}, 4), sched
		},
		"static order": func() (*sdf.Graph, statespace.Options) {
			return g, statespace.Options{Schedules: []statespace.Schedule{{Tile: "t0", Entries: []sdf.ActorID{2, 1, 0}}}}
		},
		"channel name": func() (*sdf.Graph, statespace.Options) {
			h := pipeline([3]int64{3, 5, 2}, 4)
			h.Channels()[0].Name = "renamed"
			return h, sched
		},
		"initial tokens": func() (*sdf.Graph, statespace.Options) {
			return pipeline([3]int64{3, 5, 2}, 3), sched
		},
		"concurrency cap": func() (*sdf.Graph, statespace.Options) {
			h := pipeline([3]int64{3, 5, 2}, 4)
			h.Actors()[1].MaxConcurrent = 2
			return h, sched
		},
	}
	for name, mut := range mutations {
		if analysisKey(mut()) == key {
			t.Errorf("%s did not change the key", name)
		}
	}
}
