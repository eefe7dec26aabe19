package sim

import (
	"testing"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/mapping"
	"mamps/internal/mjpeg"
	"mamps/internal/sdf"
	"mamps/internal/wcet"
)

// execPipelineApp builds an executable 3-actor pipeline: src generates
// integers, mid doubles them, sink records them. Token size is
// configurable to exercise serialization.
func execPipelineApp(t *testing.T, tokenSize int, cycles [3]int64) (*appmodel.App, *[]int) {
	t.Helper()
	g := sdf.NewGraph("exec")
	a := g.AddActor("src", cycles[0])
	b := g.AddActor("mid", cycles[1])
	c := g.AddActor("sink", cycles[2])
	c1 := g.Connect(a, b, 1, 1, 0)
	c1.Name, c1.TokenSize = "s2m", tokenSize
	c2 := g.Connect(b, c, 1, 1, 0)
	c2.Name, c2.TokenSize = "m2s", tokenSize

	app := appmodel.New("exec", g)
	next := 0
	out := &[]int{}
	app.AddImpl(a, appmodel.Impl{PE: arch.MicroBlaze, WCET: cycles[0], InstrMem: 1024, DataMem: 512,
		Fire: func(m *wcet.Meter, in [][]appmodel.Token) ([][]appmodel.Token, error) {
			m.Add(cycles[0])
			v := next
			next++
			return [][]appmodel.Token{{v}}, nil
		},
		Init: func() error { next = 0; return nil },
	})
	app.AddImpl(b, appmodel.Impl{PE: arch.MicroBlaze, WCET: cycles[1], InstrMem: 1024, DataMem: 512,
		Fire: func(m *wcet.Meter, in [][]appmodel.Token) ([][]appmodel.Token, error) {
			m.Add(cycles[1])
			return [][]appmodel.Token{{in[0][0].(int) * 2}}, nil
		},
	})
	app.AddImpl(c, appmodel.Impl{PE: arch.MicroBlaze, WCET: cycles[2], InstrMem: 1024, DataMem: 512,
		Fire: func(m *wcet.Meter, in [][]appmodel.Token) ([][]appmodel.Token, error) {
			m.Add(cycles[2])
			*out = append(*out, in[0][0].(int))
			return nil, nil
		},
		Init: func() error { *out = (*out)[:0]; return nil },
	})
	return app, out
}

func mustMap(t *testing.T, app *appmodel.App, n int, kind arch.InterconnectKind, opt mapping.Options) *mapping.Mapping {
	t.Helper()
	p, err := arch.DefaultTemplate().Generate("plat", n, kind)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Map(app, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSimPipelineFunctional(t *testing.T) {
	app, out := execPipelineApp(t, 16, [3]int64{100, 150, 80})
	m := mustMap(t, app, 3, arch.FSL, mapping.Options{FixedBinding: map[string]int{"src": 0, "mid": 1, "sink": 2}})
	res, err := Run(m, Options{Iterations: 40, RefActor: "sink", CheckWCET: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(*out) != 40 {
		t.Fatalf("sink received %d tokens", len(*out))
	}
	for i, v := range *out {
		if v != 2*i {
			t.Fatalf("token %d = %d, want %d (FIFO order through the platform)", i, v, 2*i)
		}
	}
	if res.Throughput.IsZero() {
		t.Fatalf("throughput = %v", res.Throughput)
	}
	if len(res.Completions) != 40 {
		t.Fatalf("completions = %d", len(res.Completions))
	}
}

// TestSimMeetsAnalysisBound asserts the paper's central guarantee: the
// platform execution achieves at least the worst-case throughput the
// binding-aware SDF3 analysis predicted.
func TestSimMeetsAnalysisBound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kind  arch.InterconnectKind
		size  int
		token int
	}{
		{"fsl-small-tokens", arch.FSL, 3, 8},
		{"fsl-large-tokens", arch.FSL, 3, 128},
		{"noc", arch.NoC, 3, 64},
	} {
		app, _ := execPipelineApp(t, tc.token, [3]int64{200, 300, 150})
		m := mustMap(t, app, tc.size, tc.kind, mapping.Options{
			FixedBinding: map[string]int{"src": 0, "mid": 1, "sink": 2}})
		res, err := Run(m, Options{Iterations: 60, RefActor: "sink", CheckWCET: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		bound := m.Analysis.Throughput
		if res.Throughput.Cmp(bound) < 0 {
			t.Errorf("%s: measured %+v below analysis bound %+v", tc.name, res.Throughput, bound)
		}
		t.Logf("%s: bound %.3e measured %.3e (ratio %.3f)",
			tc.name, bound.Float(), res.Throughput.Float(), res.Throughput.Float()/bound.Float())
	}
}

func TestSimSingleTile(t *testing.T) {
	app, _ := execPipelineApp(t, 8, [3]int64{10, 20, 30})
	m := mustMap(t, app, 1, arch.FSL, mapping.Options{})
	res, err := Run(m, Options{Iterations: 20, RefActor: "sink"})
	if err != nil {
		t.Fatal(err)
	}
	// One tile, no comm: steady state exactly 60 cycles per iteration.
	want := 1.0 / 60
	if thr := res.Throughput.Float(); thr < want*0.999 || thr > want*1.001 {
		t.Fatalf("throughput = %v, want %v", thr, want)
	}
	if len(res.ChannelWords) != 0 {
		t.Error("single-tile run must not use the interconnect")
	}
}

func TestSimCABeatsPESerialization(t *testing.T) {
	build := func() *appmodel.App {
		app, _ := execPipelineApp(t, 512, [3]int64{100, 100, 100})
		return app
	}
	fixed := map[string]int{"src": 0, "mid": 1, "sink": 2}
	mPE := mustMap(t, build(), 3, arch.FSL, mapping.Options{FixedBinding: fixed})
	rPE, err := Run(mPE, Options{Iterations: 60, RefActor: "sink"})
	if err != nil {
		t.Fatal(err)
	}
	mCA := mustMap(t, build(), 3, arch.FSL, mapping.Options{FixedBinding: fixed, UseCA: true})
	rCA, err := Run(mCA, Options{Iterations: 60, RefActor: "sink"})
	if err != nil {
		t.Fatal(err)
	}
	if rCA.Throughput.Cmp(rPE.Throughput) <= 0 {
		t.Fatalf("CA measured %v should beat PE serialization %v", rCA.Throughput, rPE.Throughput)
	}
	// The CA run must still meet its own analysis bound.
	if rCA.Throughput.Cmp(mCA.Analysis.Throughput) < 0 {
		t.Fatalf("CA measured %v below bound %v", rCA.Throughput, mCA.Analysis.Throughput)
	}
}

func TestSimDeterministic(t *testing.T) {
	run := func() (*Result, []int) {
		app, out := execPipelineApp(t, 64, [3]int64{70, 90, 60})
		m := mustMap(t, app, 2, arch.FSL, mapping.Options{})
		res, err := Run(m, Options{Iterations: 30, RefActor: "sink"})
		if err != nil {
			t.Fatal(err)
		}
		return res, *out
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1.Cycles != r2.Cycles || r1.Throughput != r2.Throughput {
		t.Fatal("simulation not deterministic")
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("token stream not deterministic")
		}
	}
}

func TestSimOptionsValidation(t *testing.T) {
	app, _ := execPipelineApp(t, 8, [3]int64{1, 1, 1})
	m := mustMap(t, app, 2, arch.FSL, mapping.Options{})
	if _, err := New(m, Options{Iterations: 0}); err == nil {
		t.Error("zero iterations should fail")
	}
	if _, err := New(m, Options{Iterations: 10, RefActor: "nope"}); err == nil {
		t.Error("unknown ref actor should fail")
	}
}

func TestSimMJPEGMatchesReferenceAndBound(t *testing.T) {
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqBouncingBox, 32, 32, 2, 85, mjpeg.Sampling420)
	if err != nil {
		t.Fatal(err)
	}
	want, si, err := mjpeg.Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	app, actors, err := mjpeg.BuildApp(stream)
	if err != nil {
		t.Fatal(err)
	}
	var got []*mjpeg.Frame
	actors.Raster.Sink = func(f *mjpeg.Frame) { got = append(got, f) }

	p, err := arch.DefaultTemplate().Generate("mjpeg5", 5, arch.FSL)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Map(app, p, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	iters := si.MCUsPerFrame() * si.Frames * 2 // two loops over the stream
	res, err := Run(m, Options{Iterations: iters, RefActor: "Raster", CheckWCET: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != si.Frames*2 {
		t.Fatalf("decoded %d frames, want %d", len(got), si.Frames*2)
	}
	for i := range got {
		if !got[i].Equal(want[i%si.Frames]) {
			t.Fatalf("frame %d differs from reference decoder", i)
		}
	}
	if res.Throughput.Cmp(m.Analysis.Throughput) < 0 {
		t.Fatalf("measured %v below worst-case bound %v", res.Throughput, m.Analysis.Throughput)
	}
	t.Logf("MJPEG FSL: bound %.4e measured %.4e (MCUs/cycle)", m.Analysis.Throughput.Float(), res.Throughput.Float())
	// The subHeader channels must be a tiny share of the traffic
	// (Section 6.3 reports ~1%).
	var sub, total int64
	for name, words := range res.ChannelWords {
		total += words
		if name == mjpeg.ChanSubHeader1 || name == mjpeg.ChanSubHeader2 {
			sub += words
		}
	}
	if total == 0 {
		t.Fatal("no interconnect traffic recorded")
	}
	frac := float64(sub) / float64(total)
	if frac > 0.05 {
		t.Errorf("subHeader traffic fraction = %.3f, expected a few percent at most", frac)
	}
}

func TestSimNoCSlowerThanFSL(t *testing.T) {
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 32, 32, 1, 85, mjpeg.Sampling420)
	if err != nil {
		t.Fatal(err)
	}
	run := func(kind arch.InterconnectKind) float64 {
		app, _, err := mjpeg.BuildApp(stream)
		if err != nil {
			t.Fatal(err)
		}
		p, err := arch.DefaultTemplate().Generate("p", 5, kind)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mapping.Map(app, p, mapping.Options{
			FixedBinding: map[string]int{"VLD": 0, "IQZZ": 1, "IDCT": 2, "CC": 3, "Raster": 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(m, Options{Iterations: 16, RefActor: "Raster"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput.Cmp(m.Analysis.Throughput) < 0 {
			t.Fatalf("%v: measured %v below bound %v", kind, res.Throughput, m.Analysis.Throughput)
		}
		return res.Throughput.Float()
	}
	fslThr := run(arch.FSL)
	nocThr := run(arch.NoC)
	if nocThr > fslThr {
		t.Fatalf("NoC measured %v exceeds FSL %v", nocThr, fslThr)
	}
}

func TestSimReportsLatency(t *testing.T) {
	app, _ := execPipelineApp(t, 16, [3]int64{100, 150, 80})
	m := mustMap(t, app, 3, arch.FSL, mapping.Options{FixedBinding: map[string]int{"src": 0, "mid": 1, "sink": 2}})
	res, err := Run(m, Options{Iterations: 10, RefActor: "sink"})
	if err != nil {
		t.Fatal(err)
	}
	// The first sink completion needs at least the chain's execution
	// times plus serialization: well above the sum of exec times alone.
	if res.Latency < 100+150+80 {
		t.Fatalf("latency = %d, below the bare execution chain", res.Latency)
	}
	if res.Latency != res.Completions[0] {
		t.Fatal("latency must equal the first completion")
	}
}
