package mamps

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §5 and EXPERIMENTS.md). Each benchmark runs
// the corresponding experiment and reports its headline numbers as custom
// metrics, so `go test -bench=. -benchmem` regenerates the evaluation:
//
//   BenchmarkFig6aFSL      — Figure 6(a): MCUs/Mcycle on the FSL platform
//   BenchmarkFig6bNoC      — Figure 6(b): MCUs/Mcycle on the NoC platform
//   BenchmarkTable1Steps   — Table 1: per-step times of the automated flow
//   BenchmarkCAAblation    — Section 6.3: communication-assist gain
//   BenchmarkNoCArea       — Section 5.3.1: flow-control area overhead
//   BenchmarkCommOverhead  — Section 6.3: subHeader traffic share
//   BenchmarkBufferAblation/BenchmarkFIFOAblation — design-choice sweeps
//
// Plus micro-benchmarks of the analyses themselves (state-space
// throughput, HSDF conversion, mapping, platform generation, simulation),
// which document the cost of each flow stage.

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"mamps/internal/arch"
	"mamps/internal/dse"
	"mamps/internal/energy"
	"mamps/internal/experiments"
	"mamps/internal/flow"
	"mamps/internal/hsdf"
	"mamps/internal/mapping"
	"mamps/internal/mjpeg"
	"mamps/internal/obs"
	"mamps/internal/platgen"
	"mamps/internal/sdf"
	"mamps/internal/service"
	"mamps/internal/service/cache"
	"mamps/internal/sim"
	"mamps/internal/solver"
	"mamps/internal/statespace"
)

// benchCfg is a slightly smaller workload than the experiment default so
// the full benchmark suite stays fast.
func benchCfg() experiments.Config {
	return experiments.Config{Width: 32, Height: 32, Frames: 2, Quality: 90, Tiles: 5}
}

func BenchmarkFig6aFSL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(benchCfg(), arch.FSL)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].WorstCase, "wc-MCU/Mcycle")
			b.ReportMetric(rows[0].Measured, "synthetic-MCU/Mcycle")
			b.ReportMetric(rows[1].Measured, "testset-MCU/Mcycle")
		}
	}
}

func BenchmarkFig6bNoC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(benchCfg(), arch.NoC)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(rows[0].WorstCase, "wc-MCU/Mcycle")
			b.ReportMetric(rows[0].Measured, "synthetic-MCU/Mcycle")
			b.ReportMetric(rows[1].Measured, "testset-MCU/Mcycle")
		}
	}
}

func BenchmarkTable1Steps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Automated {
					b.ReportMetric(float64(r.Elapsed.Microseconds()), shortName(r.Step)+"-µs")
				}
			}
		}
	}
}

func shortName(step string) string {
	switch step {
	case "Generating architecture model":
		return "archgen"
	case "Mapping the design (SDF3)":
		return "sdf3map"
	case "Generating Xilinx project (MAMPS)":
		return "mampsgen"
	case "Synthesis of the system":
		return "synth"
	case "Executing on platform":
		return "execute"
	case "Expected-case analysis (SDF3)":
		return "expected"
	default:
		return "step"
	}
}

func BenchmarkCAAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.CAAblation(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.GainPercent, "predicted-gain-%")
			b.ReportMetric((res.MeasuredCA/res.MeasuredPE-1)*100, "measured-gain-%")
		}
	}
}

func BenchmarkNoCArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.NoCArea()
		if i == b.N-1 {
			b.ReportMetric(rows[0].OverheadPercent, "fc-overhead-%")
		}
	}
}

func BenchmarkCommOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.CommOverhead(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.Fraction*100, "subheader-%")
		}
	}
}

func BenchmarkBufferAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.BufferAblation(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(pts[0].MemoryByte), "mem-n2-bytes")
			b.ReportMetric(pts[len(pts)-1].WorstCase*1e6, "bound-n5-MCU/Mcycle")
		}
	}
}

func BenchmarkFIFOAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.FIFOAblation(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(pts[0].WorstCase*1e6, "bound-depth2-MCU/Mcycle")
			b.ReportMetric(pts[len(pts)-1].WorstCase*1e6, "bound-depth64-MCU/Mcycle")
		}
	}
}

// ---- flow-stage micro-benchmarks ----

func mjpegAppForBench(b *testing.B) (*flow.Config, int) {
	b.Helper()
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 32, 32, 2, 90, mjpeg.Sampling420)
	if err != nil {
		b.Fatal(err)
	}
	app, actors, err := mjpeg.BuildApp(stream)
	if err != nil {
		b.Fatal(err)
	}
	si := actors.VLD.Info()
	iters := si.MCUsPerFrame() * si.Frames
	return &flow.Config{App: app, Tiles: 5, Interconnect: arch.FSL, RefActor: "Raster"}, iters
}

func BenchmarkStateSpaceThroughputMJPEG(b *testing.B) {
	cfg, _ := mjpegAppForBench(b)
	p, err := arch.DefaultTemplate().Generate("p", 5, arch.FSL)
	if err != nil {
		b.Fatal(err)
	}
	m, err := mapping.Map(cfg.App, p, mapping.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := statespace.Analyze(m.Expanded.Graph, statespace.Options{
			Schedules: m.ExpandedSchedules, MaxStates: 1 << 22,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStateSpaceStates reports the exploration rate of the
// state-space kernel: distinct states recorded per analysis (states/op)
// and the sustained exploration speed (states/s), the kernel-level
// figure of merit behind the throughput benchmark above.
func BenchmarkStateSpaceStates(b *testing.B) {
	cfg, _ := mjpegAppForBench(b)
	p, err := arch.DefaultTemplate().Generate("p", 5, arch.FSL)
	if err != nil {
		b.Fatal(err)
	}
	m, err := mapping.Map(cfg.App, p, mapping.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	states := 0
	for i := 0; i < b.N; i++ {
		r, err := statespace.Analyze(m.Expanded.Graph, statespace.Options{
			Schedules: m.ExpandedSchedules, MaxStates: 1 << 22,
		})
		if err != nil {
			b.Fatal(err)
		}
		states = r.StatesExplored
	}
	b.ReportMetric(float64(states), "states/op")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(states)*float64(b.N)/secs, "states/s")
	}
}

// BenchmarkAnalyzeWarmStart measures the analysis memo's exact hit
// against cold analysis on the MJPEG mapped graph.
func BenchmarkAnalyzeWarmStart(b *testing.B) {
	cfg, _ := mjpegAppForBench(b)
	p, err := arch.DefaultTemplate().Generate("p", 5, arch.FSL)
	if err != nil {
		b.Fatal(err)
	}
	m, err := mapping.Map(cfg.App, p, mapping.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g := m.Expanded.Graph
	sopt := statespace.Options{Schedules: m.ExpandedSchedules, MaxStates: 1 << 22}
	run := func(b *testing.B, analyze func(*sdf.Graph, statespace.Options) (statespace.Result, error)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := analyze(g, sopt); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, statespace.Analyze) })
	b.Run("exact", func(b *testing.B) {
		stats := obs.NewWarmStats(nil)
		an := cache.Analyzer(cache.New(8), context.Background(), &obs.Set{Warm: stats})
		if _, err := an(g, sopt); err != nil {
			b.Fatal(err)
		}
		run(b, an)
		if stats.Exact.Value() != int64(b.N) {
			b.Fatalf("%d exact hits in %d iterations", stats.Exact.Value(), b.N)
		}
	})
}

func BenchmarkHSDFConversion(b *testing.B) {
	g := mjpeg.BuildGraph(mjpeg.Sampling420)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hsdf.Convert(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMappingMJPEG(b *testing.B) {
	cfg, _ := mjpegAppForBench(b)
	p, err := arch.DefaultTemplate().Generate("p", 5, arch.FSL)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.Map(cfg.App, p, mapping.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlatformGeneration(b *testing.B) {
	cfg, _ := mjpegAppForBench(b)
	p, err := arch.DefaultTemplate().Generate("p", 5, arch.FSL)
	if err != nil {
		b.Fatal(err)
	}
	m, err := mapping.Map(cfg.App, p, mapping.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platgen.Generate(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateMJPEGIteration(b *testing.B) {
	cfg, iters := mjpegAppForBench(b)
	p, err := arch.DefaultTemplate().Generate("p", 5, arch.FSL)
	if err != nil {
		b.Fatal(err)
	}
	m, err := mapping.Map(cfg.App, p, mapping.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(m, sim.Options{Iterations: iters, RefActor: "Raster"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateMJPEGNoCCA simulates the same iteration on the 5-tile
// NoC platform with a communication assist on every tile, so the CA
// serializer's queue, the NI stage it feeds and the NoC connections'
// word FIFOs are all on the measured path.
func BenchmarkSimulateMJPEGNoCCA(b *testing.B) {
	cfg, iters := mjpegAppForBench(b)
	p, err := arch.DefaultTemplate().Generate("p", 5, arch.NoC)
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range p.Tiles {
		t.HasCA = true
	}
	m, err := mapping.Map(cfg.App, p, mapping.Options{UseCA: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(m, sim.Options{Iterations: iters, RefActor: "Raster"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSESweep compares the sequential and parallel design-space
// sweep over the MJPEG application (FSL, 2..5 tiles); "par" uses the
// default worker pool and should approach linear scaling on multi-core.
func BenchmarkDSESweep(b *testing.B) {
	cfg, _ := mjpegAppForBench(b)
	run := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := dse.Sweep(cfg.App, dse.Config{
					MinTiles: 2, MaxTiles: 5,
					Interconnects: []arch.InterconnectKind{arch.FSL},
					Workers:       workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("seq", run(1))
	b.Run("par", run(runtime.GOMAXPROCS(0)))
}

// BenchmarkSolverMJPEG runs the branch-and-bound binding search on the
// MJPEG decoder over 3 FSL tiles (the regress-corpus configuration) and
// reports the search effort alongside the verified bound.
func BenchmarkSolverMJPEG(b *testing.B) {
	cfg, _ := mjpegAppForBench(b)
	p, err := arch.DefaultTemplate().Generate("p", 3, arch.FSL)
	if err != nil {
		b.Fatal(err)
	}
	mod := energy.DefaultModel()
	b.ReportAllocs()
	b.ResetTimer()
	var res *solver.Result
	for i := 0; i < b.N; i++ {
		res, err = solver.Solve(context.Background(), cfg.App, p, solver.Options{
			NodeBudget: 512, Energy: &mod,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Best.Throughput.Float()*1e6, "bound-MCU/Mcycle")
	b.ReportMetric(float64(res.Stats.NodesExpanded), "nodes/op")
	b.ReportMetric(float64(res.Stats.NodesPruned), "pruned/op")
}

// BenchmarkEnergyFold measures the worst-case energy fold over a mapped
// MJPEG decoder — the cost the solver pays for every admitted binding.
func BenchmarkEnergyFold(b *testing.B) {
	cfg, _ := mjpegAppForBench(b)
	p, err := arch.DefaultTemplate().Generate("p", 5, arch.FSL)
	if err != nil {
		b.Fatal(err)
	}
	m, err := mapping.Map(cfg.App, p, mapping.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mod := energy.DefaultModel()
	b.ReportAllocs()
	b.ResetTimer()
	var rep energy.Report
	for i := 0; i < b.N; i++ {
		rep, err = mod.OfMapping(m)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.TotalPJ, "pJ/iteration")
}

func BenchmarkMJPEGEncode(b *testing.B) {
	frames := mjpeg.GenerateSequence(mjpeg.SeqPlasma, 48, 32, 2)
	si := mjpeg.StreamInfo{W: 48, H: 32, Sampling: mjpeg.Sampling420, Quality: 85, Frames: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mjpeg.Encode(si, frames); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMJPEGReferenceDecode(b *testing.B) {
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqPlasma, 48, 32, 2, 85, mjpeg.Sampling420)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mjpeg.Decode(stream); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceThroughput measures the mapping service end to end over
// HTTP with an executing MJPEG flow request: "cold" pays the full flow
// (mapping, generation, simulation) on a fresh cache every iteration,
// "warm" measures the content-addressed cache hit path the service serves
// identical requests from. The gap between the two is the cache's win.
func BenchmarkServiceThroughput(b *testing.B) {
	body := `{"workload":{"name":"mjpeg","width":32,"height":32,"frames":1},"tiles":5,"iterations":-1}`
	request := func(b *testing.B, ts *httptest.Server) {
		resp, err := http.Post(ts.URL+"/v1/flow", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %s", resp.StatusCode, data)
		}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := service.New(service.Config{Workers: 4})
			ts := httptest.NewServer(s.Handler())
			b.StartTimer()
			request(b, ts)
			b.StopTimer()
			ts.Close()
			s.Shutdown(context.Background())
			b.StartTimer()
		}
	})

	b.Run("warm", func(b *testing.B) {
		s := service.New(service.Config{Workers: 4})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Shutdown(context.Background())
		}()
		request(b, ts) // prime the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			request(b, ts)
		}
	})
}
