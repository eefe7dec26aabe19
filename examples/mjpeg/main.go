// Command mjpeg reproduces the paper's case study (Section 6): the MJPEG
// decoder of Figure 5 mapped onto a five-tile MAMPS platform, executed on
// a synthetic random sequence and the five-sequence test set, for both
// the FSL and NoC interconnects. It prints the worst-case analysis bound
// and the expected and measured throughput per sequence — the data behind
// Figure 6 — and verifies the guarantee on every run.
//
// Run with: go run ./examples/mjpeg
package main

import (
	"fmt"
	"log"

	"mamps"
	"mamps/internal/mjpeg"
)

const (
	width, height = 48, 32
	frames        = 2
	quality       = 90
	loops         = 2 // times the stream is decoded for steady state
)

func main() {
	kinds := append([]mjpeg.SequenceKind{mjpeg.SeqSynthetic}, mjpeg.TestSet()...)
	for _, ic := range []mamps.InterconnectKind{mamps.FSL, mamps.NoC} {
		fmt.Printf("=== %s interconnect ===\n", ic)
		fmt.Printf("%-14s %12s %12s %12s %9s\n",
			"sequence", "worst-case", "expected", "measured", "meas/wc")
		for _, kind := range kinds {
			run(kind, ic)
		}
		fmt.Println()
	}
}

func run(kind mjpeg.SequenceKind, ic mamps.InterconnectKind) {
	stream, _, err := mjpeg.EncodeSequence(kind, width, height, frames, quality, mjpeg.Sampling420)
	if err != nil {
		log.Fatal(err)
	}
	app, actors, err := mjpeg.BuildApp(stream)
	if err != nil {
		log.Fatal(err)
	}
	si := actors.VLD.Info()
	res, err := mamps.RunFlow(mamps.FlowConfig{
		App:          app,
		Tiles:        5,
		Interconnect: ic,
		// One actor per tile, as in the case study; pinning the binding
		// keeps the FSL/NoC comparison apples-to-apples.
		MapOptions: mamps.MapOptions{FixedBinding: map[string]int{
			"VLD": 0, "IQZZ": 1, "IDCT": 2, "CC": 3, "Raster": 4,
		}},
		Iterations: si.MCUsPerFrame() * si.Frames * loops,
		RefActor:   "Raster",
		Scenario:   kind.String(),
		CheckWCET:  true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if res.Sim.Throughput.Cmp(res.Mapping.Analysis.Throughput) < 0 {
		log.Fatalf("%s: guarantee violated: measured %v < bound %v", kind, res.Measured, res.WorstCase)
	}
	fmt.Printf("%-14s %12.4f %12.4f %12.4f %8.2fx\n",
		kind,
		mamps.MCUsPerMegacycle(res.WorstCase),
		mamps.MCUsPerMegacycle(res.Expected),
		mamps.MCUsPerMegacycle(res.Measured),
		res.Measured/res.WorstCase)
}
