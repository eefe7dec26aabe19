// Command heterogeneous demonstrates the application model's support for
// multiple implementations per actor (Section 3 of the paper): each actor
// may carry one implementation per processing-element type with its own
// WCET and memory metrics, and the mapping flow automatically selects the
// right implementation for the tile an actor is bound to — "the automated
// selection of the correct implementation when heterogeneous systems are
// designed" (Section 7).
//
// The example builds a filter pipeline in which the transform stage has
// both a MicroBlaze implementation and a much faster implementation for a
// vector-DSP tile, constructs a heterogeneous platform by hand, and shows
// the binder placing the transform on the DSP.
//
// Run with: go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"

	"mamps"
	"mamps/internal/appmodel"
	"mamps/internal/wcet"
)

// VectorDSP is a second PE type offered by the (extended) template.
const VectorDSP = "vector-dsp"

func main() {
	g := mamps.NewGraph("filter")
	src := g.AddActor("source", 200)
	xform := g.AddActor("transform", 4000)
	sink := g.AddActor("sink", 150)
	c1 := g.Connect(src, xform, 1, 1, 0)
	c1.Name, c1.TokenSize = "in", 64
	c2 := g.Connect(xform, sink, 1, 1, 0)
	c2.Name, c2.TokenSize = "out", 64

	app := mamps.NewApp("filter", g)
	counter := 0
	app.AddImpl(src, mamps.Impl{
		PE: mamps.MicroBlaze, WCET: 200, InstrMem: 2048, DataMem: 512,
		Fire: func(m *wcet.Meter, in [][]appmodel.Token) ([][]appmodel.Token, error) {
			m.Add(200)
			counter++
			return [][]appmodel.Token{{counter}}, nil
		},
	})
	// Two implementations of the transform: the DSP one is 8x faster but
	// needs more instruction memory (unrolled vector code).
	xformFire := func(cost int64) appmodel.FireFunc {
		return func(m *wcet.Meter, in [][]appmodel.Token) ([][]appmodel.Token, error) {
			m.Add(cost)
			return [][]appmodel.Token{{in[0][0].(int) * 3}}, nil
		}
	}
	app.AddImpl(xform, mamps.Impl{
		PE: mamps.MicroBlaze, WCET: 4000, InstrMem: 4096, DataMem: 2048,
		Fire: xformFire(4000),
	})
	app.AddImpl(xform, mamps.Impl{
		PE: VectorDSP, WCET: 500, InstrMem: 16384, DataMem: 4096,
		Fire: xformFire(500),
	})
	app.AddImpl(sink, mamps.Impl{
		PE: mamps.MicroBlaze, WCET: 150, InstrMem: 2048, DataMem: 512,
		Fire: func(m *wcet.Meter, in [][]appmodel.Token) ([][]appmodel.Token, error) {
			m.Add(150)
			return nil, nil
		},
	})

	// A hand-built heterogeneous platform: two MicroBlaze tiles (one
	// master) and one vector-DSP tile, joined by FSL links.
	hetero := &mamps.Platform{
		Name:     "hetero3",
		ClockMHz: 100,
		Tiles: []*mamps.Tile{
			{Name: "tile0", Kind: 0 /* master */, PE: mamps.MicroBlaze,
				InstrMem: 64 * 1024, DataMem: 64 * 1024, Peripherals: []string{"uart"}},
			{Name: "tile1", Kind: 1 /* slave */, PE: mamps.MicroBlaze,
				InstrMem: 64 * 1024, DataMem: 64 * 1024},
			{Name: "tile2", Kind: 1 /* slave */, PE: VectorDSP,
				InstrMem: 64 * 1024, DataMem: 64 * 1024},
		},
	}
	hetero.Interconnect.Kind = mamps.FSL
	hetero.Interconnect.FIFODepth = 16

	m, err := mamps.Map(app, hetero, mamps.MapOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Binding on the heterogeneous platform:")
	for _, a := range g.Actors() {
		tile := hetero.Tiles[m.TileOf[a.ID]]
		im := app.ImplFor(a.ID, tile.PE)
		fmt.Printf("  %-10s -> %s (%s implementation, WCET %d)\n", a.Name, tile.Name, tile.PE, im.WCET)
	}
	if hetero.Tiles[m.TileOf[xform.ID]].PE != VectorDSP {
		log.Fatal("binder failed to exploit the DSP implementation")
	}

	res, err := mamps.Simulate(m, mamps.SimOptions{Iterations: 50, RefActor: "sink", CheckWCET: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGuaranteed: %.2f iterations/Mcycle, measured: %.2f\n",
		m.Analysis.Throughput.Float()*1e6, res.Throughput.Float()*1e6)

	// Compare against an all-MicroBlaze platform of the same size: the
	// heterogeneous system should be decisively faster (the transform is
	// the bottleneck).
	homog, err := mamps.DefaultTemplate().Generate("homog3", 3, mamps.FSL)
	if err != nil {
		log.Fatal(err)
	}
	mh, err := mamps.Map(app, homog, mamps.MapOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("All-MicroBlaze guarantee: %.2f iterations/Mcycle (%.1fx slower)\n",
		mh.Analysis.Throughput.Float()*1e6, m.Analysis.Throughput.Float()/mh.Analysis.Throughput.Float())
}
