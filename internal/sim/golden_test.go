// Golden kernel-equivalence tests: the PE-serialized results below were
// produced by the original step-everything fixpoint simulator core (before
// the event-queue rewrite), the CA cases and the event-loop counters by the
// event-queue core before its ready set became a bitset and its queues ring
// buffers. They must stay bit-identical — the wake lists, heap, ready set
// and queue storage change how the simulator finds and holds work, never
// what the platform does or the order in which its procs are stepped.
package sim_test

import (
	"reflect"
	"strings"
	"testing"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/mapping"
	"mamps/internal/mjpeg"
	"mamps/internal/obs"
	"mamps/internal/sdf"
	"mamps/internal/sim"
	"mamps/internal/wcet"
)

type simGolden struct {
	ic            arch.InterconnectKind
	ca            bool
	cycles        int64
	throughput    float64
	latency       int64
	completions   []int64
	channelWords  map[string]int64
	channelTokens map[string]int64
	tileBusy      map[string]int64

	// Event-loop counters (obs.SimStats): they pin the order in which
	// procs are stepped, not just the platform's behaviour.
	steps, rounds, maxWakeHeap int64
}

var simGoldens = []simGolden{
	{
		ic: arch.FSL, cycles: 89695, throughput: 9.44822373393802e-05, latency: 15579,
		completions:  []int64{15579, 26191, 36775, 47359, 57943, 68527, 79111, 89695},
		channelWords: map[string]int64{"idct2cc": 2673, "iqzz2idct": 5412, "subHeader1": 32, "subHeader2": 32, "vld2iqzz": 2855},
		channelTokens: map[string]int64{"cc2raster": 8, "idct2cc": 161, "iqzz2idct": 166, "rasterState": 8,
			"subHeader1": 15, "subHeader2": 15, "vld2iqzz": 172, "vldState": 9},
		tileBusy: map[string]int64{"tile0": 29718, "tile1": 87488, "tile2": 50650, "tile3": 29016},
		steps:    76829, rounds: 52635, maxWakeHeap: 10,
	},
	{
		ic: arch.NoC, cycles: 92806, throughput: 9.041591320072333e-05, latency: 15358,
		completions:  []int64{15358, 26446, 37506, 48566, 59626, 70686, 81746, 92806},
		channelWords: map[string]int64{"idct2cc": 2640, "subHeader1": 32, "subHeader2": 32, "vld2iqzz": 2874},
		channelTokens: map[string]int64{"cc2raster": 8, "idct2cc": 160, "iqzz2idct": 85, "rasterState": 8,
			"subHeader1": 15, "subHeader2": 15, "vld2iqzz": 174, "vldState": 9},
		tileBusy: map[string]int64{"tile0": 29806, "tile1": 91060, "tile2": 29016},
		steps:    39081, rounds: 21465, maxWakeHeap: 8,
	},
	{
		ic: arch.FSL, ca: true, cycles: 55998, throughput: 0.00015566625155666251, latency: 11030,
		completions:  []int64{11030, 17454, 23878, 30302, 36726, 43150, 49574, 55998},
		channelWords: map[string]int64{"idct2cc": 2706, "iqzz2idct": 6712, "subHeader1": 57, "subHeader2": 57, "vld2iqzz": 4802},
		channelTokens: map[string]int64{"cc2raster": 8, "idct2cc": 164, "iqzz2idct": 207, "rasterState": 8,
			"subHeader1": 25, "subHeader2": 25, "vld2iqzz": 291, "vldState": 17},
		tileBusy: map[string]int64{"tile0": 31452, "tile1": 54584, "tile2": 22502, "tile3": 17104},
		steps:    78932, rounds: 34720, maxWakeHeap: 16,
	},
	{
		ic: arch.NoC, ca: true, cycles: 70304, throughput: 0.00012224938875305622, latency: 13044,
		completions:  []int64{13044, 21224, 29404, 37584, 45764, 53944, 62124, 70304},
		channelWords: map[string]int64{"idct2cc": 2650, "subHeader1": 45, "subHeader2": 45, "vld2iqzz": 3633},
		channelTokens: map[string]int64{"cc2raster": 8, "idct2cc": 161, "iqzz2idct": 90, "rasterState": 8,
			"subHeader1": 22, "subHeader2": 22, "vld2iqzz": 221, "vldState": 13},
		tileBusy: map[string]int64{"tile0": 25854, "tile1": 69324, "tile2": 17104},
		steps:    41429, rounds: 26726, maxWakeHeap: 14,
	},
}

func TestGoldenSimMJPEG(t *testing.T) {
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 32, 32, 2, 90, mjpeg.Sampling420)
	if err != nil {
		t.Fatal(err)
	}
	app, actors, err := mjpeg.BuildApp(stream)
	if err != nil {
		t.Fatal(err)
	}
	si := actors.VLD.Info()
	iters := si.MCUsPerFrame() * si.Frames

	for _, want := range simGoldens {
		name := want.ic.String()
		if want.ca {
			name += "+ca"
		}
		t.Run(name, func(t *testing.T) {
			p, err := arch.DefaultTemplate().Generate("p", 5, want.ic)
			if err != nil {
				t.Fatal(err)
			}
			if want.ca {
				for _, tile := range p.Tiles {
					tile.HasCA = true
				}
			}
			m, err := mapping.Map(app, p, mapping.Options{UseCA: want.ca})
			if err != nil {
				t.Fatal(err)
			}
			tel := obs.NewSimStats(nil)
			r, err := sim.Run(m, sim.Options{Iterations: iters, RefActor: "Raster", Telemetry: tel})
			if err != nil {
				t.Fatal(err)
			}
			if got := [3]int64{tel.Steps.Value(), tel.Rounds.Value(), tel.MaxWakeHeap.Value()}; got != [3]int64{want.steps, want.rounds, want.maxWakeHeap} {
				t.Errorf("steps, rounds, max wake heap = %v, want [%d %d %d]", got, want.steps, want.rounds, want.maxWakeHeap)
			}
			if r.Cycles != want.cycles {
				t.Errorf("Cycles = %d, want %d", r.Cycles, want.cycles)
			}
			if r.Throughput != want.throughput {
				t.Errorf("Throughput = %v, want %v", r.Throughput, want.throughput)
			}
			if r.Latency != want.latency {
				t.Errorf("Latency = %d, want %d", r.Latency, want.latency)
			}
			if !reflect.DeepEqual(r.Completions, want.completions) {
				t.Errorf("Completions = %v, want %v", r.Completions, want.completions)
			}
			words := map[string]int64{}
			for k, v := range r.ChannelWords {
				if v != 0 {
					words[k] = v
				}
			}
			if !reflect.DeepEqual(words, want.channelWords) {
				t.Errorf("ChannelWords = %v, want %v", words, want.channelWords)
			}
			tokens := map[string]int64{}
			for k, v := range r.ChannelTokens {
				if v != 0 {
					tokens[k] = v
				}
			}
			if !reflect.DeepEqual(tokens, want.channelTokens) {
				t.Errorf("ChannelTokens = %v, want %v", tokens, want.channelTokens)
			}
			if !reflect.DeepEqual(r.TileBusy, want.tileBusy) {
				t.Errorf("TileBusy = %v, want %v", r.TileBusy, want.tileBusy)
			}
		})
	}
}

// TestGoldenSimDeadlock: an undersized destination buffer on a cyclic
// dependency stalls the platform; the event-queue core must detect the
// empty wake heap and report the deadlock instead of spinning.
func TestGoldenSimDeadlock(t *testing.T) {
	g := sdf.NewGraph("dead")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.Connect(a, b, 1, 1, 0)
	g.Connect(b, a, 1, 1, 0) // no initial token anywhere: nothing can fire
	app := appmodel.New("dead", g)
	fire := func(m *wcet.Meter, in [][]appmodel.Token) ([][]appmodel.Token, error) {
		m.Add(1)
		return [][]appmodel.Token{{nil}}, nil
	}
	app.AddImpl(a, appmodel.Impl{PE: arch.MicroBlaze, WCET: 10, Fire: fire})
	app.AddImpl(b, appmodel.Impl{PE: arch.MicroBlaze, WCET: 10, Fire: fire})

	p, err := arch.DefaultTemplate().Generate("p", 1, arch.FSL)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Map(app, p, mapping.Options{})
	if err == nil {
		// The mapping's own analysis may already reject the deadlock; if it
		// somehow passes, the simulator must still catch it.
		_, serr := sim.Run(m, sim.Options{Iterations: 1})
		if serr == nil || !strings.Contains(serr.Error(), "deadlock") {
			t.Fatalf("sim.Run = %v, want deadlock error", serr)
		}
		return
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("mapping.Map = %v, want deadlock-related error", err)
	}
}

// TestSimInterrupt: a pre-fired Interrupt channel aborts Run with
// ErrInterrupted before any cycles are simulated.
func TestSimInterrupt(t *testing.T) {
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 16, 16, 1, 90, mjpeg.Sampling420)
	if err != nil {
		t.Fatal(err)
	}
	app, _, err := mjpeg.BuildApp(stream)
	if err != nil {
		t.Fatal(err)
	}
	p, err := arch.DefaultTemplate().Generate("p", 2, arch.FSL)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Map(app, p, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan struct{})
	close(ch)
	_, err = sim.Run(m, sim.Options{Iterations: 1, Interrupt: ch})
	if err != sim.ErrInterrupted {
		t.Fatalf("err = %v, want sim.ErrInterrupted", err)
	}
}
