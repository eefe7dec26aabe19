package faults

import (
	"errors"
	"fmt"
	"testing"
)

// TestDeterminism: identical specs produce bit-identical fault schedules;
// different seeds produce different ones.
func TestDeterminism(t *testing.T) {
	spec := &Spec{Seed: 42, JitterFrac: 0.5, Degradations: []Degradation{
		{From: 0, Until: 100000, MaxStall: 7},
	}}
	a, err := spec.Engine()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := spec.Engine()
	for i := int64(0); i < 1000; i++ {
		if x, y := a.ExecJitter("vld", i, 500), b.ExecJitter("vld", i, 500); x != y {
			t.Fatalf("firing %d: jitter %d != %d", i, x, y)
		}
		if x, y := a.WordStall("c", i, i*10), b.WordStall("c", i, i*10); x != y {
			t.Fatalf("word %d: stall %d != %d", i, x, y)
		}
	}
	other, _ := (&Spec{Seed: 43, JitterFrac: 0.5}).Engine()
	same := 0
	for i := int64(0); i < 1000; i++ {
		if a.ExecJitter("vld", i, 500) == other.ExecJitter("vld", i, 500) {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("seed 42 and 43 produced identical jitter schedules")
	}
}

// TestSplitStreams: adding a fault model (or more windows) to a scenario
// must not perturb the draws of the other models — each model hashes its
// own stream tag and subject, never shared state.
func TestSplitStreams(t *testing.T) {
	lean, _ := (&Spec{Seed: 9, JitterFrac: 0.8}).Engine()
	full, _ := (&Spec{
		Seed:       9,
		JitterFrac: 0.8,
		Degradations: []Degradation{
			{From: 0, Until: 1 << 40, MaxStall: 31},
			{Channel: "x", From: 0, Until: 1 << 40, MaxStall: 5},
		},
		FailTile: "tile1", FailCycle: 12345,
	}).Engine()
	for i := int64(0); i < 500; i++ {
		for _, actor := range []string{"VLD", "IQZZ", "IDCT"} {
			if x, y := lean.ExecJitter(actor, i, 300), full.ExecJitter(actor, i, 300); x != y {
				t.Fatalf("actor %s firing %d: jitter perturbed by other models (%d != %d)", actor, i, x, y)
			}
		}
	}
}

// TestJitterBounds: the jitter never exceeds JitterFrac·headroom, and a
// zero headroom (firing already at WCET) yields zero jitter.
func TestJitterBounds(t *testing.T) {
	e, _ := (&Spec{Seed: 1, JitterFrac: 0.5}).Engine()
	for i := int64(0); i < 2000; i++ {
		j := e.ExecJitter("a", i, 100)
		if j < 0 || j > 50 {
			t.Fatalf("firing %d: jitter %d out of [0,50]", i, j)
		}
	}
	if j := e.ExecJitter("a", 0, 0); j != 0 {
		t.Fatalf("zero headroom produced jitter %d", j)
	}
	if j := e.ExecJitter("a", 0, -10); j != 0 {
		t.Fatalf("negative headroom produced jitter %d", j)
	}
}

// TestWordStallWindows: stalls happen only inside matching windows and
// stay within [1, MaxStall].
func TestWordStallWindows(t *testing.T) {
	e, _ := (&Spec{Seed: 3, Degradations: []Degradation{
		{Channel: "ab", From: 100, Until: 200, MaxStall: 4},
	}}).Engine()
	if s := e.WordStall("ab", 0, 99); s != 0 {
		t.Fatalf("stall %d before window", s)
	}
	if s := e.WordStall("ab", 0, 200); s != 0 {
		t.Fatalf("stall %d at window end", s)
	}
	if s := e.WordStall("other", 0, 150); s != 0 {
		t.Fatalf("stall %d on unmatched channel", s)
	}
	for w := int64(0); w < 500; w++ {
		s := e.WordStall("ab", w, 150)
		if s < 1 || s > 4 {
			t.Fatalf("word %d: stall %d out of [1,4]", w, s)
		}
	}
}

// TestNilEngine: a nil engine (empty scenario) reports no faults.
func TestNilEngine(t *testing.T) {
	var e *Engine
	if e.ExecJitter("a", 0, 100) != 0 || e.WordStall("c", 0, 0) != 0 {
		t.Fatal("nil engine injected a fault")
	}
	if _, ok := e.TileFailCycle("t"); ok {
		t.Fatal("nil engine scheduled a fail-stop")
	}
	eng, err := (&Spec{Seed: 5}).Engine()
	if err != nil || eng != nil {
		t.Fatalf("empty spec compiled to %v, %v; want nil engine", eng, err)
	}
}

func TestValidate(t *testing.T) {
	bad := []*Spec{
		{JitterFrac: -0.1},
		{JitterFrac: 1.5},
		{Degradations: []Degradation{{From: 10, Until: 5, MaxStall: 1}}},
		{Degradations: []Degradation{{MaxStall: -1}}},
		{FailCycle: 100},
		{FailTile: "t", FailCycle: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d %+v validated", i, s)
		}
	}
	if err := (&Spec{Seed: 1, JitterFrac: 1, FailTile: "t"}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestWithoutFailStop(t *testing.T) {
	s := &Spec{Seed: 7, JitterFrac: 0.25, FailTile: "tile2", FailCycle: 999,
		Degradations: []Degradation{{From: 1, Until: 2, MaxStall: 3}}}
	c := s.WithoutFailStop()
	if c.FailTile != "" || c.FailCycle != 0 {
		t.Fatalf("fail-stop survived: %+v", c)
	}
	if c.Seed != 7 || c.JitterFrac != 0.25 || len(c.Degradations) != 1 {
		t.Fatalf("other models perturbed: %+v", c)
	}
	c.Degradations[0].MaxStall = 99
	if s.Degradations[0].MaxStall != 3 {
		t.Fatal("WithoutFailStop aliased the degradation slice")
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("seed=42;jitter=0.5;link=*@from=0@until=20000@stall=4;tile=tile1@cycle=50000")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Seed: 42, JitterFrac: 0.5, FailTile: "tile1", FailCycle: 50000,
		Degradations: []Degradation{{From: 0, Until: 20000, MaxStall: 4}}}
	if fmt.Sprint(*spec) != fmt.Sprint(want) {
		t.Fatalf("parsed %+v, want %+v", *spec, want)
	}

	if spec, err = ParseSpec("tile=t1@cycle=50000"); err != nil {
		t.Fatal(err)
	}
	if spec.FailTile != "t1" || spec.FailCycle != 50000 {
		t.Fatalf("parsed %+v", *spec)
	}

	if spec, err = ParseSpec("link=vld2iqzz@from=100@until=900@stall=2"); err != nil {
		t.Fatal(err)
	}
	if len(spec.Degradations) != 1 || spec.Degradations[0].Channel != "vld2iqzz" {
		t.Fatalf("parsed %+v", *spec)
	}

	for _, bad := range []string{
		"bogus=1",
		"jitter=x",
		"jitter=2.0",
		"tile=t1",
		"link=*@stall=2",
		"link=*@until=100",
		"tile=a@cycle=1;tile=b@cycle=2",
		"seed",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestErrTileFailedUnwraps: a fail-stop wrapped by the simulator is
// still found by errors.As, the match degraded-mode recovery relies on.
func TestErrTileFailedUnwraps(t *testing.T) {
	var tf *ErrTileFailed
	err := fmt.Errorf("sim: %w", &ErrTileFailed{Tile: "t1", Cycle: 5})
	if !errors.As(err, &tf) || tf.Tile != "t1" || tf.Cycle != 5 {
		t.Fatalf("errors.As failed: %v", err)
	}
}
