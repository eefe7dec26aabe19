// Command sdf3-analyze runs the SDF3-side analyses on an application
// model in the XML interchange format: structural validation, repetition
// vector, worst-case self-timed throughput, and buffer sizing for a
// throughput constraint.
//
//	sdf3-analyze -app app.xml [-throughput 1e-5] [-json]
//
// With -json the tool emits the same machine-readable document the
// mapping service returns from POST /v1/analyze. With -demo, it writes a
// demo application model (the paper's Figure 2 example) to the given path
// instead, as a format reference.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mamps"
	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/buffer"
	"mamps/internal/modelio"
	"mamps/internal/statespace"
)

func main() {
	appPath := flag.String("app", "", "application model XML")
	target := flag.Float64("throughput", 0, "throughput constraint (iterations/cycle) for buffer sizing")
	demo := flag.String("demo", "", "write a demo application model to this path and exit")
	jsonOut := flag.Bool("json", false, "emit the service's machine-readable JSON instead of text")
	flag.Parse()

	if *demo != "" {
		writeDemo(*demo)
		return
	}
	if *appPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*appPath)
	if err != nil {
		log.Fatal(err)
	}
	app, err := mamps.ReadApp(data)
	if err != nil {
		log.Fatal(err)
	}
	g := app.Graph

	resp := modelio.AnalyzeResponseJSON{App: app.Name, Actors: g.NumActors(), Channels: g.NumChannels()}
	resp.RepetitionVector, err = modelio.RepetitionVectorJSON(g)
	if err != nil {
		log.Fatal(err)
	}

	// Throughput of the graph itself (all actors serialized per their
	// concurrency constraints, channels unbounded where no back-edges).
	for _, a := range g.Actors() {
		a.MaxConcurrent = 1
	}
	lb := buffer.LowerBounds(g)
	thr, err := buffer.Evaluate(g, lb, statespace.Options{})
	if err != nil {
		log.Fatal(err)
	}
	resp.Throughput = modelio.NewThroughputJSON(thr.Float())

	if *target > 0 {
		dist, got, err := buffer.Minimize(g, *target, buffer.Options{})
		if err != nil {
			log.Fatal(err)
		}
		resp.TargetThroughput = *target
		resp.Achieved = modelio.NewThroughputJSON(got.Float())
		for _, c := range g.Channels() {
			if c.IsSelfLoop() {
				continue
			}
			resp.Buffers = append(resp.Buffers, modelio.BufferJSON{
				Channel: c.Name, Tokens: dist[c.ID], Bytes: dist[c.ID] * c.TokenSize,
			})
		}
	}

	if *jsonOut {
		if err := modelio.EncodeJSON(os.Stdout, resp); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("Application %q: %d actors, %d channels\n", resp.App, resp.Actors, resp.Channels)
	fmt.Println("Repetition vector:")
	for _, row := range resp.RepetitionVector {
		fmt.Printf("  %-16s %6d firings/iteration  (WCET %d cycles)\n", row.Name, row.Repetitions, row.WCET)
	}
	fmt.Printf("Throughput at minimal buffers: %.6g iterations/cycle (%.4f per Mcycle)\n",
		resp.Throughput.ItersPerCycle, resp.Throughput.MCUsPerMcycle)
	if *target > 0 {
		fmt.Printf("Buffer distribution for throughput >= %g (achieves %.6g):\n",
			resp.TargetThroughput, resp.Achieved.ItersPerCycle)
		for _, b := range resp.Buffers {
			fmt.Printf("  %-16s %4d tokens (%d bytes)\n", b.Channel, b.Tokens, b.Bytes)
		}
	}
}

func writeDemo(path string) {
	g := mamps.NewGraph("fig2")
	a := g.AddActor("A", 40)
	b := g.AddActor("B", 25)
	c := g.AddActor("C", 30)
	g.Connect(a, b, 2, 1, 0).Name = "a2b"
	g.Connect(a, c, 1, 1, 0).Name = "a2c"
	g.Connect(b, c, 1, 2, 0).Name = "b2c"
	g.AddStateChannel(a)
	app := mamps.NewApp("fig2", g)
	for _, actor := range g.Actors() {
		app.AddImpl(actor, appmodel.Impl{
			PE: arch.MicroBlaze, WCET: actor.ExecTime, InstrMem: 2048, DataMem: 512,
		})
	}
	data, err := mamps.WriteApp(app)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote demo application model to", path)
}
