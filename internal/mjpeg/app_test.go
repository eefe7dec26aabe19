package mjpeg

import (
	"testing"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/statespace"
)

func encodeTestStream(t *testing.T, kind SequenceKind, sampling Sampling, w, h, frames, quality int) ([]byte, []*Frame) {
	t.Helper()
	stream, src, err := EncodeSequence(kind, w, h, frames, quality, sampling)
	if err != nil {
		t.Fatal(err)
	}
	return stream, src
}

func TestBuildGraphShape(t *testing.T) {
	g := BuildGraph(Sampling420)
	if g.NumActors() != 5 || g.NumChannels() != 8 {
		t.Fatalf("graph = %d actors %d channels", g.NumActors(), g.NumChannels())
	}
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	// One iteration decodes one MCU: VLD 1, IQZZ 10, IDCT 10, CC 1,
	// Raster 1.
	want := map[string]int64{"VLD": 1, "IQZZ": 10, "IDCT": 10, "CC": 1, "Raster": 1}
	for name, w := range want {
		if got := q[g.ActorByName(name).ID]; got != w {
			t.Errorf("q(%s) = %d, want %d", name, got, w)
		}
	}
}

func TestGraphPortOrders(t *testing.T) {
	g := BuildGraph(Sampling420)
	vld := g.ActorByName("VLD")
	// VLD inputs: vldState only.
	if len(vld.In()) != 1 || g.Channel(vld.In()[0]).Name != ChanVLDState {
		t.Error("VLD input ports wrong")
	}
	outNames := []string{ChanVLDState, ChanVLD2IQZZ, ChanSubHeader1, ChanSubHeader2}
	for i, cid := range vld.Out() {
		if g.Channel(cid).Name != outNames[i] {
			t.Errorf("VLD out[%d] = %s, want %s", i, g.Channel(cid).Name, outNames[i])
		}
	}
	cc := g.ActorByName("CC")
	inNames := []string{ChanSubHeader1, ChanIDCT2CC}
	for i, cid := range cc.In() {
		if g.Channel(cid).Name != inNames[i] {
			t.Errorf("CC in[%d] = %s, want %s", i, g.Channel(cid).Name, inNames[i])
		}
	}
	raster := g.ActorByName("Raster")
	rInNames := []string{ChanSubHeader2, ChanCC2Raster, ChanRasterState}
	for i, cid := range raster.In() {
		if g.Channel(cid).Name != rInNames[i] {
			t.Errorf("Raster in[%d] = %s, want %s", i, g.Channel(cid).Name, rInNames[i])
		}
	}
}

func TestBuildAppValidates(t *testing.T) {
	stream, _ := encodeTestStream(t, SeqGradient, Sampling420, 32, 32, 1, 75)
	app, actors, err := BuildApp(stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	if actors.VLD.Info().Sampling != Sampling420 {
		t.Error("VLD stream info wrong")
	}
	for _, a := range app.Graph.Actors() {
		im := app.ImplFor(a.ID, arch.MicroBlaze)
		if im == nil || im.Fire == nil {
			t.Fatalf("actor %q missing executable MicroBlaze impl", a.Name)
		}
	}
}

// TestPipelineMatchesReference is the core functional validation: running
// the five actors as a dataflow pipeline must reproduce the reference
// decoder's frames bit-exactly, for both sampling modes.
func TestPipelineMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		sampling Sampling
		kind     SequenceKind
		w, h     int
	}{
		{Sampling444, SeqGradient, 24, 16},
		{Sampling420, SeqBouncingBox, 32, 32},
		{Sampling420, SeqSynthetic, 32, 16},
	} {
		stream, _ := encodeTestStream(t, tc.kind, tc.sampling, tc.w, tc.h, 2, 80)
		want, si, err := Decode(stream)
		if err != nil {
			t.Fatal(err)
		}
		app, actors, err := BuildApp(stream)
		if err != nil {
			t.Fatal(err)
		}
		var got []*Frame
		actors.Raster.Sink = func(f *Frame) { got = append(got, f) }
		iterations := si.MCUsPerFrame() * si.Frames
		if _, err := appmodel.Run(app, appmodel.RunOptions{
			PE: arch.MicroBlaze, RefActor: "Raster", Firings: iterations, CheckWCET: true,
		}); err != nil {
			t.Fatalf("%v/%v: %v", tc.sampling, tc.kind, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v/%v: pipeline produced %d frames, want %d", tc.sampling, tc.kind, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%v/%v: frame %d differs from reference decoder", tc.sampling, tc.kind, i)
			}
		}
	}
}

// TestWCETBoundsHold asserts the conservativeness of the analytic WCETs
// over all test material, including the worst-case synthetic sequence —
// the property the paper's guarantee rests on.
func TestWCETBoundsHold(t *testing.T) {
	kinds := append([]SequenceKind{SeqSynthetic}, TestSet()...)
	for _, kind := range kinds {
		stream, _ := encodeTestStream(t, kind, Sampling420, 32, 32, 2, 90)
		app, _, err := BuildApp(stream)
		if err != nil {
			t.Fatal(err)
		}
		si, _, _ := ParseHeader(stream)
		profile, err := appmodel.Run(app, appmodel.RunOptions{
			PE: arch.MicroBlaze, RefActor: "Raster",
			Firings: si.MCUsPerFrame() * si.Frames, CheckWCET: true,
			Scenario: kind.String(),
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := profile.CheckBounds(WCETs(si.Sampling)); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

// TestSyntheticNearWorstCase checks the case-study premise: random data
// drives the VLD appreciably closer to its WCET than natural sequences.
func TestSyntheticNearWorstCase(t *testing.T) {
	measure := func(kind SequenceKind) float64 {
		stream, _ := encodeTestStream(t, kind, Sampling420, 32, 32, 2, 90)
		app, _, err := BuildApp(stream)
		if err != nil {
			t.Fatal(err)
		}
		si, _, _ := ParseHeader(stream)
		profile, err := appmodel.Run(app, appmodel.RunOptions{
			PE: arch.MicroBlaze, RefActor: "Raster", Firings: si.MCUsPerFrame() * si.Frames,
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(profile.Record("VLD").Max()) / float64(VLDWCET(si.Sampling))
	}
	synthetic := measure(SeqSynthetic)
	gradient := measure(SeqGradient)
	if synthetic <= gradient {
		t.Fatalf("synthetic VLD utilization %.2f should exceed natural %.2f", synthetic, gradient)
	}
	if synthetic < 0.2 {
		t.Fatalf("synthetic VLD utilization %.2f suspiciously low", synthetic)
	}
}

func TestGraphThroughputAnalyzable(t *testing.T) {
	// The MJPEG graph with every actor serialized (self-timed on one
	// infinite-speed tile each) must analyze without deadlock.
	g := BuildGraph(Sampling420)
	for _, a := range g.Actors() {
		a.MaxConcurrent = 1
	}
	// Bound the channels so the state space stays finite.
	for _, c := range g.Channels() {
		_ = c
	}
	// Buffer bounds: use two-iteration capacities on each channel.
	q, _ := g.RepetitionVector()
	bounded := g.Clone()
	for _, c := range g.Channels() {
		if c.IsSelfLoop() {
			continue
		}
		cap := int(2*q[c.Src])*c.SrcRate + c.InitialTokens
		sc := bounded.Connect(bounded.Actor(c.Dst), bounded.Actor(c.Src), c.DstRate, c.SrcRate, cap-c.InitialTokens)
		sc.Name = c.Name + "_space"
	}
	r, err := statespace.Analyze(bounded, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || r.Throughput.IsZero() {
		t.Fatalf("result = %+v", r)
	}
}

func TestVLDStreamWrapsAround(t *testing.T) {
	// Firing more iterations than the stream holds must wrap to frame 0.
	stream, _ := encodeTestStream(t, SeqGradient, Sampling444, 16, 16, 1, 75)
	app, actors, err := BuildApp(stream)
	if err != nil {
		t.Fatal(err)
	}
	si := actors.VLD.Info()
	perStream := si.MCUsPerFrame() * si.Frames
	frames := 0
	actors.Raster.Sink = func(*Frame) { frames++ }
	if _, err := appmodel.Run(app, appmodel.RunOptions{
		PE: arch.MicroBlaze, RefActor: "Raster", Firings: perStream * 3,
	}); err != nil {
		t.Fatal(err)
	}
	if frames != 3 {
		t.Fatalf("decoded %d frames over 3 stream loops, want 3", frames)
	}
}

func TestWCETFormulasPositiveAndOrdered(t *testing.T) {
	for _, s := range []Sampling{Sampling444, Sampling420} {
		wc := WCETs(s)
		for name, v := range wc {
			if v <= 0 {
				t.Errorf("%s WCET = %d", name, v)
			}
		}
		// VLD (entropy decoding of up to 6 blocks) dominates the others.
		if wc["VLD"] <= wc["IDCT"] {
			t.Errorf("VLD WCET %d should exceed IDCT %d", wc["VLD"], wc["IDCT"])
		}
	}
	if VLDWCET(Sampling420) <= VLDWCET(Sampling444) {
		t.Error("more coded blocks must raise the VLD WCET")
	}
}

// TestQualityRaisesVLDWork: higher quality keeps more coefficients, so
// the VLD's measured execution times must grow with the quality setting.
func TestQualityRaisesVLDWork(t *testing.T) {
	vldMax := func(quality int) int64 {
		stream, _ := encodeTestStream(t, SeqPlasma, Sampling420, 32, 32, 1, quality)
		app, _, err := BuildApp(stream)
		if err != nil {
			t.Fatal(err)
		}
		si, _, _ := ParseHeader(stream)
		profile, err := appmodel.Run(app, appmodel.RunOptions{
			PE: arch.MicroBlaze, RefActor: "Raster", Firings: si.MCUsPerFrame(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return profile.Record("VLD").Max()
	}
	lo, hi := vldMax(40), vldMax(95)
	if hi <= lo {
		t.Fatalf("VLD max at q95 (%d) should exceed q40 (%d)", hi, lo)
	}
}

// TestScenarioProfiles exercises the scenario classification of package
// wcet across sequences: per-scenario maxima are tracked separately.
func TestScenarioProfiles(t *testing.T) {
	stream1, _ := encodeTestStream(t, SeqSynthetic, Sampling420, 32, 32, 1, 90)
	app, _, err := BuildApp(stream1)
	if err != nil {
		t.Fatal(err)
	}
	si, _, _ := ParseHeader(stream1)
	p1, err := appmodel.Run(app, appmodel.RunOptions{
		PE: arch.MicroBlaze, RefActor: "Raster", Firings: si.MCUsPerFrame(),
		Scenario: "synthetic",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The untimed executor lets sources run ahead, so the VLD may fire
	// more often than the reference actor; the Raster count is exact.
	if got := p1.Record("Raster").ScenarioCount("synthetic"); got != int64(si.MCUsPerFrame()) {
		t.Fatalf("Raster scenario count = %d, want %d", got, si.MCUsPerFrame())
	}
	rec := p1.Record("VLD")
	if rec.ScenarioCount("synthetic") < int64(si.MCUsPerFrame()) {
		t.Fatalf("VLD scenario count = %d", rec.ScenarioCount("synthetic"))
	}
	if rec.ScenarioMax("synthetic") != rec.Max() {
		t.Fatal("single-scenario max must equal global max")
	}
}

// TestPipeline444OnPlatform runs the 4:4:4 variant through the full
// platform simulation and compares against the reference decoder.
func TestPipeline444OnPlatform(t *testing.T) {
	stream, _ := encodeTestStream(t, SeqBars, Sampling444, 24, 16, 1, 85)
	want, si, err := Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	app, actors, err := BuildApp(stream)
	if err != nil {
		t.Fatal(err)
	}
	var got []*Frame
	actors.Raster.Sink = func(f *Frame) { got = append(got, f) }
	if _, err := appmodel.Run(app, appmodel.RunOptions{
		PE: arch.MicroBlaze, RefActor: "Raster",
		Firings: si.MCUsPerFrame() * si.Frames, CheckWCET: true,
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Equal(want[0]) {
		t.Fatal("4:4:4 pipeline diverges from reference")
	}
}
