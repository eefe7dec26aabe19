package dse

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"mamps/internal/sdf"
	"mamps/internal/service/cache"
	"mamps/internal/statespace"
)

func TestSweepContextCancelledBeforeStart(t *testing.T) {
	app := pipelineApp(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts, err := SweepContext(ctx, app, Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(pts) != 0 {
		t.Fatalf("got %d points before the first context check", len(pts))
	}
}

// TestSweepContextPartialPoints cancels mid-sweep (from inside the first
// point's analysis) and checks that the already-evaluated points are
// still returned alongside the error.
func TestSweepContextPartialPoints(t *testing.T) {
	app := pipelineApp(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{}
	cfg.MapOptions.Analyze = func(g *sdf.Graph, opt statespace.Options) (statespace.Result, error) {
		cancel() // current point completes; the next loop iteration aborts
		return statespace.Analyze(g, opt)
	}
	pts, err := SweepContext(ctx, app, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d partial points, want 1", len(pts))
	}
	if pts[0].Err != nil || pts[0].Throughput.IsZero() {
		t.Fatalf("partial point unusable: %+v", pts[0])
	}
}

// TestSweepSharedCacheReuse: two sweeps over the same application through
// one shared cache — the second must reuse the first's analyses and
// produce identical results.
func TestSweepSharedCacheReuse(t *testing.T) {
	app := pipelineApp(t)
	c := cache.New(0)
	cfg := Config{Cache: c}

	first, err := Sweep(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses == 0 {
		t.Fatal("first sweep did not populate the cache")
	}
	if st.Hits != 0 {
		t.Fatalf("first sweep already hit the cache %d times over an empty cache... stats %+v", st.Hits, st)
	}

	second, err := Sweep(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2 := c.Stats()
	if st2.Misses != st.Misses {
		t.Fatalf("second sweep missed the cache (%d -> %d misses)", st.Misses, st2.Misses)
	}
	if st2.Hits == 0 {
		t.Fatal("second sweep did not reuse any cached analysis")
	}
	if len(second) != len(first) {
		t.Fatalf("point counts differ: %d vs %d", len(second), len(first))
	}
	for i := range first {
		if second[i].Throughput != first[i].Throughput || second[i].Area != first[i].Area {
			t.Errorf("point %s: cached sweep differs: thr %v vs %v, area %v vs %v",
				first[i].Label(), second[i].Throughput, first[i].Throughput, second[i].Area, first[i].Area)
		}
	}

	// An explicit MapOptions.Analyze must win over the cache wiring (and,
	// with parallel workers, may be called concurrently).
	var calls atomic.Int64
	override := Config{Cache: c}
	override.MapOptions.Analyze = func(g *sdf.Graph, opt statespace.Options) (statespace.Result, error) {
		calls.Add(1)
		return statespace.Analyze(g, opt)
	}
	if _, err := Sweep(app, override); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("explicit analyzer was not used")
	}
}
