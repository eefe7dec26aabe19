package comm

import (
	"math"
	"testing"

	"mamps/internal/noc"
	"mamps/internal/sdf"
	"mamps/internal/statespace"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// producerConsumer builds a(ta) -p-> -q-> b(tb) with the given token size.
func producerConsumer(ta, tb int64, p, q, tokenSize int) (*sdf.Graph, *sdf.Channel) {
	g := sdf.NewGraph("pc")
	a := g.AddActor("a", ta)
	b := g.AddActor("b", tb)
	a.MaxConcurrent = 1
	b.MaxConcurrent = 1
	c := g.Connect(a, b, p, q, 0)
	c.TokenSize = tokenSize
	return g, c
}

func TestExpandStructure(t *testing.T) {
	g, c := producerConsumer(10, 10, 1, 1, 16) // 4 words per token
	p := FSLParams(16)
	p.SrcBuffer, p.DstBuffer = 2, 2
	ex, err := Expand(g, map[sdf.ChannelID]Params{c.ID: p})
	if err != nil {
		t.Fatal(err)
	}
	ng := ex.Graph
	if ng.NumActors() != 2+8 {
		t.Fatalf("actors = %d, want 10", ng.NumActors())
	}
	ca := ex.PerChannel[c.ID]
	s1 := ng.Actor(ca.S1)
	wantSer := int64(PESerFixed + 4*PESerPerWord)
	if s1.ExecTime != wantSer {
		t.Errorf("s1 exec = %d, want %d", s1.ExecTime, wantSer)
	}
	if ng.Actor(ca.S2).ExecTime != 0 || ng.Actor(ca.S3).ExecTime != 0 ||
		ng.Actor(ca.D2).ExecTime != 0 || ng.Actor(ca.D3).ExecTime != 0 {
		t.Error("modelling-only actors must have execution time 0")
	}
	if ng.Actor(ca.C1).ExecTime != 1 || ng.Actor(ca.C2).ExecTime != 1 {
		t.Error("FSL latency-rate actors should be 1 cycle")
	}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	if !ng.IsConsistent() {
		t.Fatal("expanded graph must stay consistent")
	}
}

func TestExpandPreservesUnmappedChannels(t *testing.T) {
	g := sdf.NewGraph("mix")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	c1 := g.Connect(a, b, 1, 1, 3)
	c1.TokenSize = 8
	ex, err := Expand(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Graph.NumActors() != 2 || ex.Graph.NumChannels() != 1 {
		t.Fatal("unmapped channel should copy unchanged")
	}
	nc := ex.Graph.Channel(0)
	if nc.InitialTokens != 3 || nc.TokenSize != 8 || nc.Name != c1.Name {
		t.Errorf("channel not preserved: %+v", nc)
	}
}

func TestExpandRejectsSelfLoop(t *testing.T) {
	g := sdf.NewGraph("self")
	a := g.AddActor("a", 1)
	c := g.Connect(a, a, 1, 1, 1)
	p := FSLParams(16)
	p.SrcBuffer, p.DstBuffer = 1, 1
	if _, err := Expand(g, map[sdf.ChannelID]Params{c.ID: p}); err == nil {
		t.Fatal("expected self-loop rejection")
	}
}

func TestParamsValidate(t *testing.T) {
	g, c := producerConsumer(1, 1, 2, 3, 4)
	cases := []func(*Params){
		func(p *Params) { p.Latency = 0 },
		func(p *Params) { p.CyclesPerWord = 0 },
		func(p *Params) { p.InFlight, p.NetBuffer = 0, 0 },
		func(p *Params) { p.SrcBuffer = 1 }, // below SrcRate 2
		func(p *Params) { p.DstBuffer = 2 }, // below DstRate 3
		func(p *Params) { p.SerFixed = -1 },
	}
	for i, mutate := range cases {
		p := FSLParams(16)
		p.SrcBuffer, p.DstBuffer = 4, 6
		mutate(&p)
		if _, err := Expand(g, map[sdf.ChannelID]Params{c.ID: p}); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestInitialTokensLandAtDestination(t *testing.T) {
	g := sdf.NewGraph("init")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	c := g.Connect(a, b, 1, 1, 2)
	p := FSLParams(16)
	p.SrcBuffer, p.DstBuffer = 3, 3
	ex, err := Expand(g, map[sdf.ChannelID]Params{c.ID: p})
	if err != nil {
		t.Fatal(err)
	}
	var dstbuf, dstspace *sdf.Channel
	for _, ch := range ex.Graph.Channels() {
		switch ch.Name {
		case c.Name + "_dstbuf":
			dstbuf = ch
		case c.Name + "_dstspace":
			dstspace = ch
		}
	}
	if dstbuf == nil || dstspace == nil {
		t.Fatal("destination buffer channels missing")
	}
	if dstbuf.InitialTokens != 2 {
		t.Errorf("dstbuf tokens = %d, want 2", dstbuf.InitialTokens)
	}
	if dstspace.InitialTokens != 1 {
		t.Errorf("dstspace tokens = %d, want 3-2=1", dstspace.InitialTokens)
	}
}

func TestExpandedThroughputAnalyzable(t *testing.T) {
	g, c := producerConsumer(20, 20, 1, 1, 16)
	p := FSLParams(16)
	p.SrcBuffer, p.DstBuffer = 2, 2
	ex, err := Expand(g, map[sdf.ChannelID]Params{c.ID: p})
	if err != nil {
		t.Fatal(err)
	}
	r, err := statespace.Analyze(ex.Graph, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked {
		t.Fatal("expanded graph deadlocked")
	}
	if r.Throughput.IsZero() {
		t.Fatalf("throughput = %v", r.Throughput)
	}
	// Communication costs time: slower than the 20-cycle actors alone.
	if r.Throughput.Float() >= 1.0/20 {
		t.Errorf("throughput %v should be below 1/20 (comm adds delay)", r.Throughput)
	}
}

func TestLargeTokenOverShallowFIFONoDeadlock(t *testing.T) {
	// Token of 64 words through a depth-16 FIFO: the implementation
	// drains word-by-word; the model must not deadlock either.
	g, c := producerConsumer(50, 50, 1, 1, 256)
	p := FSLParams(16)
	p.SrcBuffer, p.DstBuffer = 1, 1
	ex, err := Expand(g, map[sdf.ChannelID]Params{c.ID: p})
	if err != nil {
		t.Fatal(err)
	}
	r, err := statespace.Analyze(ex.Graph, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || r.Throughput.IsZero() {
		t.Fatalf("result = %+v, want live execution", r)
	}
}

func TestCAImprovesThroughput(t *testing.T) {
	// With serialization on the PE and the PE scheduled, serialization
	// competes with actor execution; offloading to the CA must improve
	// the analyzed throughput (Section 6.3).
	g, c := producerConsumer(30, 30, 1, 1, 64) // 16 words: hefty serialization
	pPE := FSLParams(16)
	pPE.SrcBuffer, pPE.DstBuffer = 2, 2
	exPE, err := Expand(g, map[sdf.ChannelID]Params{c.ID: pPE})
	if err != nil {
		t.Fatal(err)
	}
	caPE := exPE.PerChannel[c.ID]
	// Schedule: tile0 runs a then serializes; tile1 deserializes then b.
	rPE, err := statespace.Analyze(exPE.Graph, statespace.Options{Schedules: []statespace.Schedule{
		{Tile: "t0", Entries: []sdf.ActorID{0, caPE.S1}},
		{Tile: "t1", Entries: []sdf.ActorID{caPE.D1, 1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	pCA := pPE.WithCA()
	exCA, err := Expand(g, map[sdf.ChannelID]Params{c.ID: pCA})
	if err != nil {
		t.Fatal(err)
	}
	// With a CA, s1/d1 are not scheduled on the PEs.
	rCA, err := statespace.Analyze(exCA.Graph, statespace.Options{Schedules: []statespace.Schedule{
		{Tile: "t0", Entries: []sdf.ActorID{0}},
		{Tile: "t1", Entries: []sdf.ActorID{1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rCA.Throughput.Cmp(rPE.Throughput) <= 0 {
		t.Fatalf("CA throughput %v should beat PE serialization %v", rCA.Throughput, rPE.Throughput)
	}
}

func TestNoCParamsFromTiming(t *testing.T) {
	m, err := noc.New(4, 32, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := m.Connect("c", 0, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := NoCParams(m.ConnectionTiming(conn))
	if p.Latency != 8 { // 2 hops * (3+1)
		t.Errorf("latency = %d, want 8", p.Latency)
	}
	if p.CyclesPerWord != 2 { // 16 of 32 wires
		t.Errorf("cycles/word = %d, want 2", p.CyclesPerWord)
	}
	if p.InFlight != 3 || p.NetBuffer != 2 {
		t.Errorf("params = %+v", p)
	}
}

func TestNoCSlowerThanFSL(t *testing.T) {
	// The same mapping over the NoC must analyze to at most the FSL
	// throughput (higher latency, possibly lower rate): Figure 6 shape.
	g, c := producerConsumer(25, 25, 1, 1, 32)
	pf := FSLParams(16)
	pf.SrcBuffer, pf.DstBuffer = 2, 2
	m, _ := noc.New(4, 32, 3, true)
	conn, _ := m.Connect("c", 0, 3, 8)
	pn := NoCParams(m.ConnectionTiming(conn))
	pn.SrcBuffer, pn.DstBuffer = 2, 2

	thr := func(p Params) float64 {
		ex, err := Expand(g, map[sdf.ChannelID]Params{c.ID: p})
		if err != nil {
			t.Fatal(err)
		}
		r, err := statespace.Analyze(ex.Graph, statespace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r.Throughput.Float()
	}
	f, n := thr(pf), thr(pn)
	if n > f {
		t.Fatalf("NoC throughput %v exceeds FSL %v", n, f)
	}
}

func TestWithCAKeepsConnectionTiming(t *testing.T) {
	p := FSLParams(8)
	ca := p.WithCA()
	if !ca.OnCA() || !ca.SrcOnCA || !ca.DstOnCA {
		t.Error("CA flags not set")
	}
	if ca.Latency != p.Latency || ca.CyclesPerWord != p.CyclesPerWord {
		t.Error("WithCA must not change connection timing")
	}
	if ca.SerPerWord != CASerPerWord || ca.SerFixed != CASerFixed {
		t.Error("WithCA must swap serialization costs")
	}
	if p.OnCA() {
		t.Error("WithCA must not mutate the receiver")
	}
	// Per-end variants.
	src := FSLParams(8).WithSrcCA()
	if !src.SrcOnCA || src.DstOnCA || src.SerPerWord != CASerPerWord || src.DeserPerWord != PESerPerWord {
		t.Errorf("WithSrcCA = %+v", src)
	}
	dst := FSLParams(8).WithDstCA()
	if dst.SrcOnCA || !dst.DstOnCA || dst.DeserPerWord != CASerPerWord || dst.SerPerWord != PESerPerWord {
		t.Errorf("WithDstCA = %+v", dst)
	}
}

func TestExpandMultiRateChannel(t *testing.T) {
	g, c := producerConsumer(5, 5, 2, 3, 12)
	p := FSLParams(16)
	p.SrcBuffer, p.DstBuffer = 6, 6
	ex, err := Expand(g, map[sdf.ChannelID]Params{c.ID: p})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Graph.IsConsistent() {
		t.Fatal("expanded multi-rate graph inconsistent")
	}
	r, err := statespace.Analyze(ex.Graph, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || r.Throughput.IsZero() {
		t.Fatalf("result = %+v", r)
	}
	_ = almostEqual
}
