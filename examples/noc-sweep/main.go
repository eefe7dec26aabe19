// Command noc-sweep explores the SDM NoC design space for the MJPEG
// decoder: mesh dimensioning for growing tile counts, per-connection wire
// allocation and the resulting latency-rate parameters, and the
// guaranteed-throughput/area trade-off of FSL versus NoC platforms with
// and without communication assists — the "very fast design space
// exploration" the template-based architecture enables (Section 7).
//
// Run with: go run ./examples/noc-sweep
package main

import (
	"fmt"
	"log"

	"mamps"
	"mamps/internal/mjpeg"
	"mamps/internal/noc"
)

func main() {
	// Mesh dimensioning (Section 5.3.1: "kept as close to square as
	// possible").
	fmt.Println("Mesh dimensioning:")
	for _, n := range []int{2, 3, 4, 5, 6, 8, 9, 12} {
		w, h := noc.Dimension(n)
		fmt.Printf("  %2d tiles -> %dx%d mesh\n", n, w, h)
	}

	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 32, 32, 1, 85, mjpeg.Sampling420)
	if err != nil {
		log.Fatal(err)
	}
	app, _, err := mjpeg.BuildApp(stream)
	if err != nil {
		log.Fatal(err)
	}

	// Wire allocation detail for the five-tile NoC platform.
	plat, err := mamps.DefaultTemplate().Generate("noc5", 5, mamps.NoC)
	if err != nil {
		log.Fatal(err)
	}
	m, err := mamps.Map(app, plat, mamps.MapOptions{FixedBinding: map[string]int{
		"VLD": 0, "IQZZ": 1, "IDCT": 2, "CC": 3, "Raster": 4,
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nNoC connections (%dx%d mesh, %d wires/link):\n", m.Mesh.W, m.Mesh.H, plat.Interconnect.WiresPerLink)
	for _, c := range app.Graph.Channels() {
		conn, ok := m.Connections[c.ID]
		if !ok {
			continue
		}
		p := m.CommParams[c.ID]
		fmt.Printf("  %-12s (%d,%d)->(%d,%d)  %2d wires  %d hops  latency %2d  %d cycles/word\n",
			c.Name, conn.From.X, conn.From.Y, conn.To.X, conn.To.Y,
			conn.Wires, conn.Hops(), p.Latency, p.CyclesPerWord)
	}
	fmt.Printf("  link utilization: %.0f%%\n", m.Mesh.LinkUtilization()*100)

	// Throughput/area exploration across the whole space.
	pts, err := mamps.Sweep(app, mamps.DSEConfig{MinTiles: 1, MaxTiles: 5, WithCA: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-10s %10s %12s\n", "config", "slices", "MCU/Mcycle")
	for _, p := range pts {
		if p.Err != nil {
			fmt.Printf("%-10s %10s %12s (%v)\n", p.Label(), "-", "-", p.Err)
			continue
		}
		fmt.Printf("%-10s %10d %12.3f\n", p.Label(), p.Area.Slices, p.Throughput.Float()*1e6)
	}
	fmt.Println("\nPareto front (throughput vs area):")
	for _, p := range mamps.ParetoFront(pts) {
		fmt.Printf("  %-10s %6d slices  %8.3f MCU/Mcycle\n", p.Label(), p.Area.Slices, p.Throughput.Float()*1e6)
	}
}
