package modelio

import (
	"strings"
	"testing"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/mapping"
	"mamps/internal/mjpeg"
	"mamps/internal/sdf"
)

func sampleApp(t *testing.T) *appmodel.App {
	t.Helper()
	g := sdf.NewGraph("sample")
	a := g.AddActor("a", 100)
	b := g.AddActor("b", 50)
	c1 := g.Connect(a, b, 2, 1, 3)
	c1.Name, c1.TokenSize = "a2b", 64
	c2 := g.Connect(b, a, 1, 2, 0)
	c2.Name, c2.TokenSize = "b2a", 8
	app := appmodel.New("sample", g)
	app.TargetThroughput = 1e-4
	app.AddImpl(a, appmodel.Impl{PE: arch.MicroBlaze, WCET: 100, InstrMem: 4096, DataMem: 2048, NeedsPeripherals: true})
	app.AddImpl(a, appmodel.Impl{PE: "dsp", WCET: 40, InstrMem: 8192, DataMem: 1024})
	app.AddImpl(b, appmodel.Impl{PE: arch.MicroBlaze, WCET: 50, InstrMem: 2048, DataMem: 512})
	return app
}

func TestAppRoundTrip(t *testing.T) {
	app := sampleApp(t)
	data, err := WriteApp(app)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadApp(data)
	if err != nil {
		t.Fatalf("%v\n%s", err, data)
	}
	if got.Name != "sample" || got.TargetThroughput != 1e-4 {
		t.Errorf("header: %q %v", got.Name, got.TargetThroughput)
	}
	g := got.Graph
	if g.NumActors() != 2 || g.NumChannels() != 2 {
		t.Fatalf("graph shape: %d/%d", g.NumActors(), g.NumChannels())
	}
	c := g.Channel(0)
	if c.Name != "a2b" || c.SrcRate != 2 || c.DstRate != 1 || c.InitialTokens != 3 || c.TokenSize != 64 {
		t.Errorf("channel 0: %+v", c)
	}
	a := g.ActorByName("a")
	if len(got.Impls[a.ID]) != 2 {
		t.Fatalf("a impls = %d", len(got.Impls[a.ID]))
	}
	mb := got.ImplFor(a.ID, arch.MicroBlaze)
	if mb == nil || mb.WCET != 100 || !mb.NeedsPeripherals || mb.InstrMem != 4096 {
		t.Errorf("microblaze impl: %+v", mb)
	}
	dsp := got.ImplFor(a.ID, "dsp")
	if dsp == nil || dsp.WCET != 40 {
		t.Errorf("dsp impl: %+v", dsp)
	}
	// Port order preserved.
	if g.Actor(a.ID).Out()[0] != 0 {
		t.Error("port order lost")
	}
	// Graph default exec time = max over impls.
	if a.ExecTime != 100 {
		t.Errorf("a exec time = %d", a.ExecTime)
	}
}

func TestReadAppErrors(t *testing.T) {
	if _, err := ReadApp([]byte("not xml")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := ReadApp([]byte(`<applicationGraph></applicationGraph>`)); err == nil {
		t.Error("nameless app should fail")
	}
	bad := `<applicationGraph name="x"><sdf><actor name="a"/><channel name="c" srcActor="a" srcRate="1" dstActor="ghost" dstRate="1"/></sdf></applicationGraph>`
	if _, err := ReadApp([]byte(bad)); err == nil {
		t.Error("unknown channel endpoint should fail")
	}
	noImpl := `<applicationGraph name="x"><sdf><actor name="a"/><channel name="c" srcActor="a" srcRate="1" dstActor="a" dstRate="1" initialTokens="1"/></sdf></applicationGraph>`
	if _, err := ReadApp([]byte(noImpl)); err == nil {
		t.Error("actor without implementation should fail validation")
	}
}

// TestReadAppRejectsMalformed: violations the sdf constructors would panic
// on come back as errors naming the offending actor or channel.
func TestReadAppRejectsMalformed(t *testing.T) {
	data, err := WriteApp(sampleApp(t))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, c := range []struct{ name, old, new, mention string }{
		{"duplicate actor", `<actor name="b">`, `<actor name="a">`, `"a"`},
		{"zero srcRate", `srcRate="2"`, `srcRate="0"`, `"a2b"`},
		{"negative dstRate", `dstRate="2"`, `dstRate="-2"`, `"b2a"`},
		{"negative initialTokens", `initialTokens="3"`, `initialTokens="-1"`, `"a2b"`},
	} {
		bad := strings.Replace(doc, c.old, c.new, 1)
		if bad == doc {
			t.Fatalf("%s: %s not in the sample model:\n%s", c.name, c.old, doc)
		}
		_, err := ReadApp([]byte(bad))
		if err == nil || !strings.Contains(err.Error(), c.mention) {
			t.Errorf("%s: err = %v, want an error naming %s", c.name, err, c.mention)
		}
	}
}

func TestArchRoundTrip(t *testing.T) {
	for _, kind := range []arch.InterconnectKind{arch.FSL, arch.NoC} {
		p, err := arch.DefaultTemplate().Generate("plat", 4, kind)
		if err != nil {
			t.Fatal(err)
		}
		p.Tiles[2].HasCA = true
		data, err := WriteArch(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadArch(data)
		if err != nil {
			t.Fatalf("%v\n%s", err, data)
		}
		if got.Name != p.Name || got.ClockMHz != p.ClockMHz || len(got.Tiles) != 4 {
			t.Errorf("%v: header lost", kind)
		}
		if got.Tiles[0].Kind != arch.MasterTile || len(got.Tiles[0].Peripherals) == 0 {
			t.Errorf("%v: master tile lost", kind)
		}
		if !got.Tiles[2].HasCA {
			t.Errorf("%v: CA flag lost", kind)
		}
		if got.Interconnect != p.Interconnect {
			t.Errorf("%v: interconnect lost: %+v != %+v", kind, got.Interconnect, p.Interconnect)
		}
	}
}

func TestReadArchErrors(t *testing.T) {
	if _, err := ReadArch([]byte("nope")); err == nil {
		t.Error("garbage should fail")
	}
	bad := `<architectureGraph name="p" clockMHz="100"><tile name="t" kind="weird" pe="microblaze" instrMem="1" dataMem="1"/><interconnect kind="fsl" fifoDepth="4"/></architectureGraph>`
	if _, err := ReadArch([]byte(bad)); err == nil {
		t.Error("unknown tile kind should fail")
	}
	bad2 := `<architectureGraph name="p" clockMHz="100"><tile name="t" kind="master" pe="microblaze" instrMem="1" dataMem="1"/><interconnect kind="warp"/></architectureGraph>`
	if _, err := ReadArch([]byte(bad2)); err == nil {
		t.Error("unknown interconnect should fail")
	}
}

func TestMappingRoundTrip(t *testing.T) {
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 32, 32, 1, 80, mjpeg.Sampling420)
	if err != nil {
		t.Fatal(err)
	}
	app, _, err := mjpeg.BuildApp(stream)
	if err != nil {
		t.Fatal(err)
	}
	p, err := arch.DefaultTemplate().Generate("plat", 5, arch.NoC)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Map(app, p, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := WriteMapping(m)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ReadMapping(data)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Application != "mjpeg" || doc.Platform != "plat" {
		t.Errorf("header: %+v", doc)
	}
	if doc.Throughput != m.Analysis.Throughput {
		t.Error("throughput lost")
	}
	for _, a := range app.Graph.Actors() {
		want := p.Tiles[m.TileOf[a.ID]].Name
		if doc.TileOf[a.Name] != want {
			t.Errorf("binding of %s: %s != %s", a.Name, doc.TileOf[a.Name], want)
		}
	}
	// Schedules cover all bound tiles and buffers all non-self channels.
	if len(doc.Schedules) == 0 {
		t.Error("schedules missing")
	}
	for _, c := range app.Graph.Channels() {
		if c.IsSelfLoop() {
			continue
		}
		if doc.Buffers[c.Name] != m.Buffers[c.ID] {
			t.Errorf("buffer of %s lost", c.Name)
		}
	}
	if !strings.Contains(string(data), "connection") {
		t.Error("NoC connections missing from document")
	}
}
