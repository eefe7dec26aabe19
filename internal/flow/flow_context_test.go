package flow

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mamps/internal/arch"
	"mamps/internal/clock"
	"mamps/internal/mjpeg"
	"mamps/internal/sdf"
	"mamps/internal/service/cache"
	"mamps/internal/statespace"
)

// tickingClock is a fake time source that advances a fixed amount on
// every reading, so each flow step observes a deterministic duration.
type tickingClock struct {
	fake *clock.Fake
	tick time.Duration
}

func (c *tickingClock) Now() time.Time {
	t := c.fake.Now()
	c.fake.Advance(c.tick)
	return t
}

func (c *tickingClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// TestStepTimingFakeClock injects the fake clock into the flow's Table 1
// step timing: with a clock that ticks 7ms per reading, every step must
// report exactly one tick, independent of real execution speed.
func TestStepTimingFakeClock(t *testing.T) {
	cfg, _ := mjpegConfig(t, mjpeg.SeqGradient, arch.FSL, 1)
	cfg.Iterations = 0 // analysis-only keeps the step list short and fast
	const tick = 7 * time.Millisecond
	cfg.Clock = &tickingClock{fake: clock.NewFake(time.Date(2011, 3, 9, 0, 0, 0, 0, time.UTC)), tick: tick}

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 3 {
		t.Fatalf("steps = %d, want 3 (analysis-only)", len(res.Steps))
	}
	for _, s := range res.Steps {
		if s.Elapsed != tick {
			t.Errorf("step %q elapsed %v, want exactly %v", s.Name, s.Elapsed, tick)
		}
	}
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	cfg, _ := mjpegConfig(t, mjpeg.SeqGradient, arch.FSL, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancelled before") {
		t.Fatalf("err = %v, want a cancelled-before-step error", err)
	}
}

// TestRunContextCancelledDuringStep cancels the context from inside the
// mapping step's analysis hook, exercising the cancelled-during path.
func TestRunContextCancelledDuringStep(t *testing.T) {
	cfg, _ := mjpegConfig(t, mjpeg.SeqGradient, arch.FSL, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.MapOptions.Analyze = func(g *sdf.Graph, opt statespace.Options) (statespace.Result, error) {
		cancel() // the step itself still completes; the flow notices after
		return statespace.Analyze(g, opt)
	}
	_, err := RunContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), `cancelled during "Mapping the design (SDF3)"`) {
		t.Fatalf("err = %v, want a cancelled-during-mapping error", err)
	}
}

// TestContextAnalyzerInterrupts: the analyzer RunContext installs by
// default aborts the state-space exploration with ErrInterrupted.
func TestContextAnalyzerInterrupts(t *testing.T) {
	g := sdf.NewGraph("g")
	a := g.AddActor("A", 10)
	b := g.AddActor("B", 20)
	g.Connect(a, b, 1, 1, 0)
	g.Connect(b, a, 1, 1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := cache.Analyzer(nil, ctx, nil)(g, statespace.Options{})
	if !errors.Is(err, statespace.ErrInterrupted) {
		t.Fatalf("err = %v, want statespace.ErrInterrupted", err)
	}
}
