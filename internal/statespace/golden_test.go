// Golden kernel-equivalence tests: the results below were produced by the
// original map[string]visit state-space kernel (before the arena +
// open-addressing rewrite) and must stay bit-identical. Any divergence
// means the allocation-free kernel changed semantics, not just speed.
package statespace_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mamps/internal/arch"
	"mamps/internal/mapping"
	"mamps/internal/mjpeg"
	"mamps/internal/sdf"
	"mamps/internal/statespace"
)

// TestGoldenSmallGraphs pins the analysis of the example graphs against
// the original kernel, covering the recurrence, multi-rate, static-order
// and deadlock paths.
func TestGoldenSmallGraphs(t *testing.T) {
	type tc struct {
		name  string
		build func() (*sdf.Graph, statespace.Options)
		want  statespace.Result
	}
	cases := []tc{
		{
			name: "cycle",
			build: func() (*sdf.Graph, statespace.Options) {
				g := sdf.NewGraph("cycle")
				a := g.AddActor("a", 2)
				b := g.AddActor("b", 3)
				g.Connect(a, b, 1, 1, 0)
				g.Connect(b, a, 1, 1, 1)
				return g, statespace.Options{}
			},
			want: statespace.Result{Throughput: sdf.Rate{Firings: 1, Q: 1, Period: 5}, StatesExplored: 2, MaxTokens: []int64{1, 1}},
		},
		{
			name: "pipe",
			build: func() (*sdf.Graph, statespace.Options) {
				g := sdf.NewGraph("pipe")
				a := g.AddActor("a", 2)
				b := g.AddActor("b", 3)
				g.Connect(a, b, 1, 1, 0)
				g.Connect(b, a, 1, 1, 2)
				return g, statespace.Options{}
			},
			want: statespace.Result{Throughput: sdf.Rate{Firings: 2, Q: 1, Period: 5}, StatesExplored: 2, MaxTokens: []int64{2, 2}},
		},
		{
			name: "mr",
			build: func() (*sdf.Graph, statespace.Options) {
				g := sdf.NewGraph("mr")
				a := g.AddActor("a", 2)
				b := g.AddActor("b", 3)
				a.MaxConcurrent = 1
				b.MaxConcurrent = 1
				g.Connect(a, b, 2, 1, 0)
				g.Connect(b, a, 1, 2, 2)
				return g, statespace.Options{}
			},
			want: statespace.Result{Throughput: sdf.Rate{Firings: 1, Q: 1, Period: 8}, StatesExplored: 3, MaxTokens: []int64{2, 2}},
		},
		{
			name: "sched",
			build: func() (*sdf.Graph, statespace.Options) {
				g := sdf.NewGraph("sched")
				a := g.AddActor("a", 2)
				b := g.AddActor("b", 3)
				g.Connect(a, b, 1, 1, 1)
				g.Connect(b, a, 1, 1, 1)
				return g, statespace.Options{
					Schedules: []statespace.Schedule{{Tile: "t0", Entries: []sdf.ActorID{a.ID, b.ID}}}}
			},
			want: statespace.Result{Throughput: sdf.Rate{Firings: 1, Q: 1, Period: 5}, StatesExplored: 2, MaxTokens: []int64{2, 1}},
		},
		{
			name: "dead",
			build: func() (*sdf.Graph, statespace.Options) {
				g := sdf.NewGraph("dead")
				a := g.AddActor("a", 1)
				b := g.AddActor("b", 1)
				g.Connect(a, b, 1, 1, 0)
				g.Connect(b, a, 1, 1, 0)
				return g, statespace.Options{}
			},
			want: statespace.Result{Deadlocked: true, StatesExplored: 1, MaxTokens: []int64{0, 0}},
		},
		{
			name: "deadsched",
			build: func() (*sdf.Graph, statespace.Options) {
				g := sdf.NewGraph("deadsched")
				a := g.AddActor("a", 1)
				b := g.AddActor("b", 1)
				g.Connect(a, b, 1, 1, 0)
				g.Connect(b, a, 1, 1, 1)
				return g, statespace.Options{
					Schedules: []statespace.Schedule{{Tile: "t0", Entries: []sdf.ActorID{b.ID, a.ID}}}}
			},
			want: statespace.Result{Deadlocked: true, StatesExplored: 1, MaxTokens: []int64{0, 1}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, opt := c.build()
			r, err := statespace.Analyze(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			r.DeadlockReport = "" // free-form text, not part of the golden
			if !reflect.DeepEqual(r, c.want) {
				t.Errorf("Analyze(%s) = %+v, want %+v", c.name, r, c.want)
			}
		})
	}
}

// mjpegGolden pins the binding-aware MJPEG analyses (FSL and NoC) against
// the original kernel. These are the largest state spaces in the test
// suite (thousands of states), so they exercise arena growth, table
// rehashing, and the narrow/wide key encodings.
type mjpegGolden struct {
	ic             arch.InterconnectKind
	throughput     float64
	periodCycles   int64
	transient      int64
	statesExplored int
	maxTokens      []int64
}

var mjpegGoldens = []mjpegGolden{
	{
		ic: arch.FSL, throughput: 3.0216957756693056e-05,
		periodCycles: 33094, transient: 58434, statesExplored: 2870,
		maxTokens: []int64{1, 10, 20, 33, 33, 1, 33, 33, 1, 50, 50, 1, 1, 20, 1, 3, 4, 4, 1, 4, 4, 1, 21, 4, 1, 1, 3, 1, 3, 4, 4, 1, 4, 4, 1, 21, 8, 1, 1, 3, 1, 20, 65, 65, 1, 65, 65, 1, 82, 82, 1, 1, 20, 1, 20, 33, 33, 1, 33, 33, 1, 50, 33, 1, 10, 20, 1, 1, 2},
	},
	{
		ic: arch.NoC, throughput: 3.451370193967005e-05,
		periodCycles: 28974, transient: 54314, statesExplored: 1532,
		maxTokens: []int64{1, 10, 20, 33, 33, 1, 33, 33, 1, 36, 36, 1, 1, 20, 1, 3, 4, 4, 1, 4, 4, 1, 9, 4, 1, 1, 3, 1, 3, 4, 4, 1, 4, 4, 1, 9, 8, 1, 1, 3, 10, 1, 20, 33, 33, 1, 33, 33, 1, 36, 33, 1, 10, 20, 1, 1, 20, 2},
	},
}

// mjpegAnalysis returns the binding-aware analysis of the MJPEG
// application mapped onto five tiles over interconnect ic.
func mjpegAnalysis(t *testing.T, ic arch.InterconnectKind) (*sdf.Graph, statespace.Options) {
	t.Helper()
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 32, 32, 2, 90, mjpeg.Sampling420)
	if err != nil {
		t.Fatal(err)
	}
	app, _, err := mjpeg.BuildApp(stream)
	if err != nil {
		t.Fatal(err)
	}
	p, err := arch.DefaultTemplate().Generate("p", 5, ic)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapping.Map(app, p, mapping.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m.Expanded.Graph, statespace.Options{Schedules: m.ExpandedSchedules, MaxStates: 1 << 22}
}

func TestGoldenMJPEG(t *testing.T) {
	for _, want := range mjpegGoldens {
		t.Run(want.ic.String(), func(t *testing.T) {
			r, err := statespace.Analyze(mjpegAnalysis(t, want.ic))
			if err != nil {
				t.Fatal(err)
			}
			if r.Throughput.Float() != want.throughput {
				t.Errorf("Throughput = %v, want %v", r.Throughput.Float(), want.throughput)
			}
			if r.Throughput.Firings != 1 {
				t.Errorf("firings per period = %d, want 1", r.Throughput.Firings)
			}
			if r.Throughput.Period != want.periodCycles {
				t.Errorf("period = %d, want %d", r.Throughput.Period, want.periodCycles)
			}
			if r.TransientCycles != want.transient {
				t.Errorf("TransientCycles = %d, want %d", r.TransientCycles, want.transient)
			}
			if r.StatesExplored != want.statesExplored {
				t.Errorf("StatesExplored = %d, want %d", r.StatesExplored, want.statesExplored)
			}
			if !reflect.DeepEqual(r.MaxTokens, want.maxTokens) {
				t.Errorf("MaxTokens = %v, want %v", r.MaxTokens, want.maxTokens)
			}
		})
	}
}

// TestInterruptStorm interrupts MJPEG explorations at random points. An
// aborted run must report ErrInterrupted and nothing else, and must leave
// nothing behind (its seen-table goes back to the pool) that changes a
// later run: every run that completes equals the uninterrupted result.
func TestInterruptStorm(t *testing.T) {
	g, opt := mjpegAnalysis(t, arch.FSL)
	start := time.Now()
	want, err := statespace.Analyze(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Delays up to twice the uninterrupted run time, so roughly half the
	// runs are cut mid-exploration whatever the host's speed.
	span := 2 * time.Since(start)
	rng := rand.New(rand.NewSource(7))
	interrupted, completed := 0, 0
	for i := 0; i < 40; i++ {
		stop := make(chan struct{})
		timer := time.AfterFunc(time.Duration(rng.Int63n(int64(span)+1)), func() { close(stop) })
		opt.Interrupt = stop
		got, err := statespace.Analyze(g, opt)
		timer.Stop()
		switch {
		case errors.Is(err, statespace.ErrInterrupted):
			interrupted++
			if !reflect.DeepEqual(got, statespace.Result{}) {
				t.Fatalf("iteration %d: interrupted run returned a result: %+v", i, got)
			}
		case err != nil:
			t.Fatalf("iteration %d: %v", i, err)
		default:
			completed++
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iteration %d: completed result diverged\n got %+v\nwant %+v", i, got, want)
			}
		}
	}
	t.Logf("interrupted=%d completed=%d", interrupted, completed)
}

// TestStatesExploredConsistent asserts the unified StatesExplored
// definition: both the recurrence and the deadlock return paths report
// the number of distinct states recorded in the hash table (the initial
// state included), where the original kernel reported len(seen) on one
// path and a separately-maintained counter on the other.
func TestStatesExploredConsistent(t *testing.T) {
	// Recurrence path: the cycle graph revisits its initial state after
	// one period having recorded 2 distinct states.
	g := sdf.NewGraph("cycle")
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 3)
	g.Connect(a, b, 1, 1, 0)
	g.Connect(b, a, 1, 1, 1)
	r, err := statespace.Analyze(g, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Deadlocked || r.StatesExplored != 2 {
		t.Errorf("recurrence path: StatesExplored = %d (deadlocked=%v), want 2", r.StatesExplored, r.Deadlocked)
	}

	// Deadlock path: no actor can ever fire, so exactly the initial state
	// is recorded.
	gd := sdf.NewGraph("dead")
	ad := gd.AddActor("a", 1)
	bd := gd.AddActor("b", 1)
	gd.Connect(ad, bd, 1, 1, 0)
	gd.Connect(bd, ad, 1, 1, 0)
	rd, err := statespace.Analyze(gd, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rd.Deadlocked || rd.StatesExplored != 1 {
		t.Errorf("deadlock path: StatesExplored = %d (deadlocked=%v), want 1", rd.StatesExplored, rd.Deadlocked)
	}
}
