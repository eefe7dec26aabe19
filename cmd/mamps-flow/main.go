// Command mamps-flow runs the automated design flow of the paper's
// Figure 1: an application model and an architecture model (or a
// template-generated platform), through SDF3 mapping and MAMPS platform
// generation. It writes the generated project tree and the mapping
// interchange document, and reports the guaranteed throughput.
//
//	mamps-flow -app app.xml [-arch plat.xml | -tiles 4 -interconnect fsl] -out projectdir
//	mamps-flow -workload mjpeg -iterations -1 -trace-out flow.json
//	mamps-flow -workload mjpeg -iterations -1 -inject 'tile=tile1@cycle=50000'
//
// -inject runs the execution under a deterministic fault scenario
// (seeded jitter, transient link degradation, tile fail-stop; see the
// grammar in internal/faults). A fail-stop does not kill the flow: it
// re-maps onto the surviving tiles, re-verifies the throughput bound
// (-target overrides the constraint), re-executes, and reports the
// degraded mode.
//
// XML models loaded from disk are analysis-only (actor behaviour lives in
// Go), so with -app the command covers the mapping and generation steps.
// The built-in -workload mjpeg is executable: with -iterations it also
// runs the platform simulator and reports measured and expected
// throughput. -trace-out records the whole run — flow stages, state-space
// analyses, simulator Gantt lanes — as a Chrome/Perfetto trace_event JSON
// file; open it at https://ui.perfetto.dev. The trace is written even
// when the flow fails, so a deadlocked execution can be inspected.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mamps"
	"mamps/internal/energy"
	"mamps/internal/faults"
	"mamps/internal/flow"
	"mamps/internal/mjpeg"
	"mamps/internal/obs"
)

func main() {
	appPath := flag.String("app", "", "application model XML (analysis-only)")
	workload := flag.String("workload", "", "built-in executable workload: mjpeg")
	archPath := flag.String("arch", "", "architecture model XML (default: generate from template)")
	tiles := flag.Int("tiles", 4, "tile count for template generation")
	ic := flag.String("interconnect", "fsl", "interconnect for template generation: fsl or noc")
	outDir := flag.String("out", "mamps-project", "output directory for the generated project")
	useCA := flag.Bool("ca", false, "offload (de)serialization to communication assists")
	iterations := flag.Int("iterations", 0, "iterations to execute on the platform (-1: full input; needs -workload)")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace_event JSON file of the run")
	inject := flag.String("inject", "", "fault scenario, e.g. 'seed=7;jitter=0.5;link=*@from=0@until=20000@stall=4;tile=tile1@cycle=50000'")
	target := flag.Float64("target", 0, "throughput constraint (iterations/cycle) checked in degraded mode; 0: the original bound")
	energyOut := flag.Bool("energy", false, "report the energy estimate of the mapping (worst-case fold; plus measured fold when executed)")
	flag.Parse()

	if (*appPath == "") == (*workload == "") {
		fmt.Fprintln(os.Stderr, "need exactly one of -app or -workload")
		flag.Usage()
		os.Exit(2)
	}

	cfg := mamps.FlowConfig{Tiles: *tiles}
	switch *ic {
	case "fsl":
		cfg.Interconnect = mamps.FSL
	case "noc":
		cfg.Interconnect = mamps.NoC
	default:
		log.Fatalf("unknown interconnect %q", *ic)
	}
	cfg.MapOptions.UseCA = *useCA

	fullIterations := 0
	switch {
	case *appPath != "":
		data, err := os.ReadFile(*appPath)
		if err != nil {
			log.Fatal(err)
		}
		cfg.App, err = mamps.ReadApp(data)
		if err != nil {
			log.Fatal(err)
		}
		if *iterations != 0 {
			log.Fatal("XML application models are analysis-only; use -workload to execute iterations")
		}
	case *workload == "mjpeg":
		stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 32, 32, 2, 90, mjpeg.Sampling420)
		if err != nil {
			log.Fatal(err)
		}
		app, actors, err := mjpeg.BuildApp(stream)
		if err != nil {
			log.Fatal(err)
		}
		cfg.App = app
		cfg.RefActor = "Raster"
		cfg.Scenario = "gradient-32x32"
		si := actors.VLD.Info()
		fullIterations = si.MCUsPerFrame() * si.Frames
	default:
		log.Fatalf("unknown workload %q (try mjpeg)", *workload)
	}

	cfg.Iterations = *iterations
	if *iterations < 0 {
		cfg.Iterations = fullIterations
	}

	if *inject != "" {
		spec, err := faults.ParseSpec(*inject)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Faults = spec
	}
	cfg.TargetThroughput = *target

	if *archPath != "" {
		raw, err := os.ReadFile(*archPath)
		if err != nil {
			log.Fatal(err)
		}
		p, err := mamps.ReadArch(raw)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Platform = p
	}

	// Telemetry: with -trace-out every layer of the run records spans and
	// kernel counters; without it the set stays nil and costs nothing.
	if *traceOut != "" {
		cfg.Obs = &obs.Set{
			Trace:    obs.New(),
			Explorer: obs.NewExplorerStats(nil),
			Sim:      obs.NewSimStats(nil),
		}
	}

	res, runErr := mamps.RunFlow(cfg)
	if *traceOut != "" {
		writeTrace(*traceOut, cfg.Obs)
	}
	if runErr != nil {
		log.Fatal(runErr)
	}
	for _, s := range res.Steps {
		fmt.Printf("%-36s %v\n", s.Name, s.Elapsed)
	}
	fmt.Printf("Guaranteed worst-case throughput: %.6g iterations/cycle (%.4f per Mcycle)\n",
		res.WorstCase, flow.MCUsPerMegacycle(res.WorstCase))
	if res.Measured > 0 {
		fmt.Printf("Measured throughput:              %.6g iterations/cycle (%.4f per Mcycle)\n",
			res.Measured, flow.MCUsPerMegacycle(res.Measured))
		fmt.Printf("Expected-case throughput:         %.6g iterations/cycle (%.4f per Mcycle)\n",
			res.Expected, flow.MCUsPerMegacycle(res.Expected))
	}
	if res.Degraded != nil {
		printDegraded(res)
	}
	if *energyOut {
		printEnergy(res, cfg.Iterations)
	}
	if cfg.Obs != nil {
		printCounters(cfg.Obs)
	}

	if err := res.Project.WriteTo(*outDir); err != nil {
		log.Fatal(err)
	}
	mappingDoc, err := mamps.WriteMapping(res.Mapping)
	if err != nil {
		log.Fatal(err)
	}
	mpath := filepath.Join(*outDir, "mapping.xml")
	if err := os.WriteFile(mpath, mappingDoc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Generated %d project files and %s under %s\n", len(res.Project.Files), "mapping.xml", *outDir)
}

// writeTrace exports the recorded spans as Perfetto trace_event JSON.
func writeTrace(path string, set *obs.Set) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := set.Trace.WritePerfetto(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Wrote %d trace spans to %s (open at https://ui.perfetto.dev)\n",
		set.Trace.SpanCount(), path)
}

// printDegraded reports the degraded-mode recovery after a fail-stop.
func printDegraded(res *mamps.FlowResult) {
	deg := res.Degraded
	fmt.Printf("DEGRADED MODE: %s failed at cycle %d; re-mapped onto %d surviving tiles\n",
		deg.FailedTile, deg.FailCycle, len(deg.SurvivingTiles))
	fmt.Printf("  migrated actors: %v (%d bytes of program and state)\n",
		deg.MigratedActors, deg.MigrationBytes)
	fmt.Printf("  degraded worst-case throughput: %.6g iterations/cycle (%.4f per Mcycle)\n",
		deg.WorstCase.Float(), flow.MCUsPerMegacycle(deg.WorstCase.Float()))
	fmt.Printf("  degraded measured throughput:   %.6g iterations/cycle (%.4f per Mcycle)\n",
		deg.Measured.Float(), flow.MCUsPerMegacycle(deg.Measured.Float()))
	verdict := "MET"
	if !deg.ConstraintMet {
		verdict = "NOT met"
	}
	fmt.Printf("  throughput constraint %s in degraded mode\n", verdict)
}

// printEnergy folds the energy model over the mapping: always at the
// guaranteed worst-case period, and additionally at the measured period
// when the platform simulator executed the workload.
func printEnergy(res *mamps.FlowResult, iterations int) {
	mod := energy.DefaultModel()
	wc, err := mod.OfMapping(res.Mapping)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Energy (worst-case period):       %.4g pJ/iteration (%.4g dynamic + %.4g comm + %.4g static), avg %.3f W\n",
		wc.TotalPJ, wc.DynamicPJ, wc.CommPJ, wc.StaticPJ, wc.AvgWatts)
	if res.Sim != nil && iterations > 0 {
		meas, err := mod.OfExecution(res.Mapping, iterations, res.Sim.Cycles)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Energy (measured period):         %.4g pJ/iteration, avg %.3f W\n",
			meas.TotalPJ, meas.AvgWatts)
	}
}

// printCounters summarizes the kernel telemetry of the run.
func printCounters(set *obs.Set) {
	if e := set.Explorer; e != nil && e.Analyses.Value() > 0 {
		fmt.Printf("State space: %d analyses, %d states explored, %d deadlocked\n",
			e.Analyses.Value(), e.StatesTotal.Value(), e.Deadlocks.Value())
	}
	if s := set.Sim; s != nil && s.Runs.Value() > 0 {
		busy, stall := s.BusyCycles.Value(), s.StallCycles.Value()
		util := 0.0
		if busy+stall > 0 {
			util = float64(busy) / float64(busy+stall)
		}
		fmt.Printf("Simulator:   %d steps in %d rounds, wake heap max %d, tile utilization %.1f%%\n",
			s.Steps.Value(), s.Rounds.Value(), s.MaxWakeHeap.Value(), util*100)
	}
}
