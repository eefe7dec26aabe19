package flow

import (
	"testing"

	"mamps/internal/arch"
	"mamps/internal/faults"
	"mamps/internal/mjpeg"
)

// TestFlowDegradedRecovery: a tile fail-stop mid-execution does not fail
// the flow — it re-maps onto the surviving tiles, re-verifies the bound,
// re-executes, and reports the degraded mode with its migration cost.
func TestFlowDegradedRecovery(t *testing.T) {
	cfg, _ := mjpegConfig(t, mjpeg.SeqGradient, arch.FSL, 1)
	cfg.Faults = &faults.Spec{Seed: 1, FailTile: "tile1", FailCycle: 50000}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deg := res.Degraded
	if deg == nil {
		t.Fatal("fail-stop produced no Degraded result")
	}
	if deg.FailedTile != "tile1" || deg.FailCycle != 50000 {
		t.Errorf("failure = %s@%d, want tile1@50000", deg.FailedTile, deg.FailCycle)
	}
	if len(deg.SurvivingTiles) != 4 {
		t.Errorf("SurvivingTiles = %v, want the 4 others", deg.SurvivingTiles)
	}
	for _, tl := range deg.SurvivingTiles {
		if tl == "tile1" {
			t.Error("failed tile listed as surviving")
		}
	}
	if deg.Mapping == nil {
		t.Fatal("no degraded mapping")
	}
	for a, tile := range deg.Mapping.TileOf {
		if res.Platform.Tiles[tile].Name == "tile1" {
			t.Errorf("actor %d still bound to the failed tile", a)
		}
	}
	if deg.WorstCase.IsZero() {
		t.Error("no degraded bound")
	}
	// The conservativeness claim holds in degraded mode too.
	if deg.Measured.Cmp(deg.WorstCase) < 0 {
		t.Errorf("degraded measured %+v below degraded bound %+v", deg.Measured, deg.WorstCase)
	}
	// With no explicit target, the constraint is the original bound.
	wantMet := deg.WorstCase.Cmp(res.Mapping.Analysis.Throughput) >= 0
	if deg.ConstraintMet != wantMet {
		t.Errorf("ConstraintMet = %v, want %v (degraded %v vs original %v)",
			deg.ConstraintMet, wantMet, deg.WorstCase, res.WorstCase)
	}
	// tile1 hosted actors, so the re-mapping must migrate some.
	if len(deg.MigratedActors) == 0 {
		t.Error("no migrated actors despite a failed tile")
	}
	if deg.MigrationBytes <= 0 {
		t.Error("no migration cost despite migrated actors")
	}
	// The recovery steps are timed like every other flow step.
	var sawRemap, sawExec bool
	for _, s := range res.Steps {
		switch s.Name {
		case "Degraded re-mapping (SDF3)":
			sawRemap = true
		case "Degraded execution on platform":
			sawExec = true
		}
	}
	if !sawRemap || !sawExec {
		t.Errorf("degraded steps missing from %v", res.Steps)
	}
	t.Logf("degraded: bound %.3f measured %.3f (original bound %.3f), migrated %v (%d bytes)",
		MCUsPerMegacycle(deg.WorstCase.Float()), MCUsPerMegacycle(deg.Measured.Float()),
		MCUsPerMegacycle(res.WorstCase), deg.MigratedActors, deg.MigrationBytes)
}

// TestFlowDegradedTarget: an explicit throughput constraint is what the
// degraded mode is checked against.
func TestFlowDegradedTarget(t *testing.T) {
	cfg, _ := mjpegConfig(t, mjpeg.SeqGradient, arch.FSL, 1)
	cfg.Faults = &faults.Spec{Seed: 2, FailTile: "tile2", FailCycle: 40000}
	cfg.TargetThroughput = 1e-12 // trivially met
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == nil || !res.Degraded.ConstraintMet {
		t.Fatalf("trivial target not met: %+v", res.Degraded)
	}
}

// TestFlowFaultsNoFailStop: a jitter/degradation scenario without a
// fail-stop completes normally — no Degraded section, bound still met.
func TestFlowFaultsNoFailStop(t *testing.T) {
	cfg, _ := mjpegConfig(t, mjpeg.SeqGradient, arch.FSL, 1)
	cfg.Faults = &faults.Spec{Seed: 3, JitterFrac: 0.5, Degradations: []faults.Degradation{
		{From: 0, Until: 30000, MaxStall: 2},
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != nil {
		t.Errorf("unexpected Degraded section: %+v", res.Degraded)
	}
	if res.Measured < res.WorstCase*(1-1e-9) {
		t.Errorf("measured %v below bound %v under faults", res.Measured, res.WorstCase)
	}
}

// TestFlowFaultsValidation: an invalid scenario is rejected before any
// flow step runs.
func TestFlowFaultsValidation(t *testing.T) {
	cfg, _ := mjpegConfig(t, mjpeg.SeqBars, arch.FSL, 1)
	cfg.Faults = &faults.Spec{JitterFrac: 2}
	if _, err := Run(cfg); err == nil {
		t.Error("invalid fault spec accepted")
	}
}
