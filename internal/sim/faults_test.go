// Fault-injection tests: the paper's conservativeness claim exercised
// under adversity. The seeded sweep below is the headline property of the
// resilience layer — across jitter and interconnect-degradation scenarios
// on both MJPEG platforms, the measured throughput never drops below the
// SDF3 worst-case bound.
package sim_test

import (
	"errors"
	"reflect"
	"testing"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/faults"
	"mamps/internal/mapping"
	"mamps/internal/mjpeg"
	"mamps/internal/sim"
)

// mjpegSetup builds the 32x32 two-frame MJPEG application of the golden
// tests and returns it with its iteration count.
func mjpegSetup(t *testing.T) (*appmodel.App, int) {
	t.Helper()
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 32, 32, 2, 90, mjpeg.Sampling420)
	if err != nil {
		t.Fatal(err)
	}
	app, actors, err := mjpeg.BuildApp(stream)
	if err != nil {
		t.Fatal(err)
	}
	si := actors.VLD.Info()
	return app, si.MCUsPerFrame() * si.Frames
}

// sweepScenarios enumerates the seeded fault scenarios: pure jitter at two
// intensities, broad interconnect degradation, and a mixed scenario with
// per-channel windows. seeds scales the sweep (4 scenarios per seed).
func sweepScenarios(seeds uint64) []*faults.Spec {
	var specs []*faults.Spec
	for seed := uint64(1); seed <= seeds; seed++ {
		specs = append(specs,
			&faults.Spec{Seed: seed, JitterFrac: 0.25},
			&faults.Spec{Seed: seed, JitterFrac: 1.0},
			&faults.Spec{Seed: seed, Degradations: []faults.Degradation{
				{From: 0, Until: 40000, MaxStall: 4},
			}},
			&faults.Spec{Seed: seed, JitterFrac: 0.5, Degradations: []faults.Degradation{
				{Channel: "vld2iqzz", From: 5000, Until: 60000, MaxStall: 3},
				{From: 20000, Until: 30000, MaxStall: 2},
			}},
		)
	}
	return specs
}

// TestFaultSweepConservative: across the seeded scenario sweep on the FSL
// and NoC MJPEG platforms, measured throughput stays at or above the
// binding-aware analysis bound — the conservativeness claim under
// adversity. `go test -short` (the faults-smoke target) runs a reduced
// sweep; the full run covers >= 20 scenarios per platform.
func TestFaultSweepConservative(t *testing.T) {
	app, iters := mjpegSetup(t)
	seeds := uint64(6)
	if testing.Short() {
		seeds = 2
	}
	scenarios := sweepScenarios(seeds)

	for _, kind := range []arch.InterconnectKind{arch.FSL, arch.NoC} {
		t.Run(kind.String(), func(t *testing.T) {
			p, err := arch.DefaultTemplate().Generate("p", 5, kind)
			if err != nil {
				t.Fatal(err)
			}
			m, err := mapping.Map(app, p, mapping.Options{})
			if err != nil {
				t.Fatal(err)
			}
			bound := m.Analysis.Throughput
			if bound.IsZero() {
				t.Fatalf("analysis bound = %v, want positive", bound)
			}
			for i, spec := range scenarios {
				eng, err := spec.Engine()
				if err != nil {
					t.Fatal(err)
				}
				r, err := sim.Run(m, sim.Options{Iterations: iters, RefActor: "Raster", Faults: eng})
				if err != nil {
					t.Fatalf("scenario %d %+v: %v", i, *spec, err)
				}
				if r.Throughput.Cmp(bound) < 0 {
					t.Errorf("scenario %d %+v: measured %v below bound %v (ratio %.4f)",
						i, *spec, r.Throughput, bound, r.Throughput.Float()/bound.Float())
				}
			}
		})
	}
}

// TestFaultDeterminism: the identical scenario yields a bit-identical
// simulation result across two runs — completion times, total cycles and
// word counts all match.
func TestFaultDeterminism(t *testing.T) {
	app, iters := mjpegSetup(t)
	p, err := arch.DefaultTemplate().Generate("p", 5, arch.FSL)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Map(app, p, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := &faults.Spec{Seed: 42, JitterFrac: 0.5, Degradations: []faults.Degradation{
		{From: 0, Until: 50000, MaxStall: 3},
	}}
	run := func() *sim.Result {
		eng, err := spec.Engine()
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Run(m, sim.Options{Iterations: iters, RefActor: "Raster", Faults: eng})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Errorf("Cycles: %d != %d", a.Cycles, b.Cycles)
	}
	if !reflect.DeepEqual(a.Completions, b.Completions) {
		t.Errorf("Completions differ:\n%v\n%v", a.Completions, b.Completions)
	}
	if !reflect.DeepEqual(a.ChannelWords, b.ChannelWords) {
		t.Errorf("ChannelWords differ:\n%v\n%v", a.ChannelWords, b.ChannelWords)
	}
	// The faulted run must differ from the fault-free baseline (the
	// scenario actually does something).
	base, err := sim.Run(m, sim.Options{Iterations: iters, RefActor: "Raster"})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(base.Completions, a.Completions) {
		t.Error("faulted run identical to fault-free baseline")
	}
}

// TestFaultFailStop: a scheduled tile fail-stop aborts the run with the
// typed *faults.ErrTileFailed carrying the tile and cycle, and emits the
// fault-failstop trace event.
func TestFaultFailStop(t *testing.T) {
	app, iters := mjpegSetup(t)
	p, err := arch.DefaultTemplate().Generate("p", 5, arch.FSL)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Map(app, p, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := (&faults.Spec{Seed: 1, FailTile: "tile1", FailCycle: 50000}).Engine()
	if err != nil {
		t.Fatal(err)
	}
	var failEvents int
	_, err = sim.Run(m, sim.Options{
		Iterations: iters, RefActor: "Raster", Faults: eng,
		Trace: func(event, subject string, now int64) {
			if event == "fault-failstop" && subject == "tile1" {
				failEvents++
			}
		},
	})
	var tf *faults.ErrTileFailed
	if !errors.As(err, &tf) {
		t.Fatalf("err = %v, want *faults.ErrTileFailed", err)
	}
	if tf.Tile != "tile1" || tf.Cycle != 50000 {
		t.Fatalf("failed tile = %s at %d, want tile1 at 50000", tf.Tile, tf.Cycle)
	}
	if failEvents == 0 {
		t.Error("no fault-failstop trace event emitted")
	}
}
