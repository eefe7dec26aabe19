package experiments

import (
	"strings"
	"testing"

	"mamps/internal/arch"
)

// smallCfg keeps the experiment tests fast.
func smallCfg() Config {
	return Config{Width: 32, Height: 32, Frames: 1, Quality: 85, Tiles: 5}
}

func TestFig6ShapesFSL(t *testing.T) {
	rows, err := Fig6(smallCfg(), arch.FSL)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (synthetic + 5 test sequences)", len(rows))
	}
	if rows[0].Sequence != "synthetic" {
		t.Fatalf("first row = %s", rows[0].Sequence)
	}
	for _, r := range rows {
		if r.Measured < r.WorstCase {
			t.Errorf("%s: guarantee violated in rendered data", r.Sequence)
		}
		if r.Measured < r.Expected*(1-1e-9) {
			t.Errorf("%s: measured %v below expected %v", r.Sequence, r.Measured, r.Expected)
		}
	}
	// Synthetic closer to the worst-case line than the natural rows.
	synthRatio := rows[0].Measured / rows[0].WorstCase
	for _, r := range rows[1:] {
		if r.Measured/r.WorstCase <= synthRatio {
			t.Errorf("%s ratio %.2f not above synthetic %.2f", r.Sequence, r.Measured/r.WorstCase, synthRatio)
		}
	}
	out := RenderFig6(rows, "panel")
	if !strings.Contains(out, "panel") || !strings.Contains(out, "synthetic") {
		t.Error("render missing content")
	}
}

func TestFig6NoCNotFasterThanFSL(t *testing.T) {
	f, err := Fig6(smallCfg(), arch.FSL)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Fig6(smallCfg(), arch.NoC)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f {
		if n[i].WorstCase > f[i].WorstCase+1e-9 {
			t.Errorf("%s: NoC bound above FSL", n[i].Sequence)
		}
	}
}

func TestTable1StructureAndAutomation(t *testing.T) {
	rows, err := Table1(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	manual, automated := 0, 0
	for _, r := range rows {
		if r.Automated {
			automated++
			if r.Elapsed <= 0 {
				t.Errorf("automated step %q has no live timing", r.Step)
			}
		} else {
			manual++
			if r.Quoted == "" {
				t.Errorf("manual step %q has no quoted figure", r.Step)
			}
		}
	}
	if manual != 4 {
		t.Errorf("manual steps = %d, want 4", manual)
	}
	if automated < 4 {
		t.Errorf("automated steps = %d, want >= 4", automated)
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "Mapping the design (SDF3)") || !strings.Contains(out, "< 3 days") {
		t.Error("render missing rows")
	}
}

func TestCAAblationImproves(t *testing.T) {
	res, err := CAAblation(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.CAThroughput <= res.PEThroughput {
		t.Fatalf("CA bound %v should beat PE %v", res.CAThroughput, res.PEThroughput)
	}
	if res.GainPercent <= 0 {
		t.Fatalf("gain = %v%%", res.GainPercent)
	}
	if res.MeasuredCA <= res.MeasuredPE {
		t.Fatalf("measured CA %v should beat PE %v", res.MeasuredCA, res.MeasuredPE)
	}
	// Guarantees hold in both configurations.
	if res.MeasuredPE < res.PEThroughput*(1-1e-9) || res.MeasuredCA < res.CAThroughput*(1-1e-9) {
		t.Fatal("guarantee violated in ablation")
	}
}

func TestNoCAreaMatchesPaper(t *testing.T) {
	rows := NoCArea()
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.OverheadPercent < 11 || r.OverheadPercent > 13 {
			t.Errorf("%d tiles: overhead %.1f%%, paper says ~12%%", r.Tiles, r.OverheadPercent)
		}
		if r.MeshW*r.MeshH < r.Tiles {
			t.Errorf("%d tiles: mesh %dx%d too small", r.Tiles, r.MeshW, r.MeshH)
		}
		if r.PlatformSlicesFC <= r.PlatformSlicesBase {
			t.Error("platform-level overhead missing")
		}
	}
}

func TestCommOverheadSmall(t *testing.T) {
	res, err := CommOverhead(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWords == 0 || res.SubHeaderWords == 0 {
		t.Fatalf("traffic not measured: %+v", res)
	}
	// The paper reports ~1%; anything under a few percent preserves the
	// observation that the modelling overhead is negligible.
	if res.Fraction <= 0 || res.Fraction > 0.05 {
		t.Fatalf("subHeader fraction = %.4f, want (0, 0.05]", res.Fraction)
	}
}

func TestBufferAblationMonotone(t *testing.T) {
	pts, err := BufferAblation(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].MemoryByte <= pts[i-1].MemoryByte {
			t.Error("memory must grow with the allocation policy")
		}
		if pts[i].WorstCase < pts[i-1].WorstCase-1e-12 {
			t.Error("more buffering must not lower the bound")
		}
	}
}

func TestFIFOAblationMonotone(t *testing.T) {
	pts, err := FIFOAblation(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].WorstCase < pts[i-1].WorstCase-1e-12 {
			t.Errorf("deeper FIFOs must not lower the bound (depth %d)", pts[i].Value)
		}
	}
	// Buffering helps up to a point: the deepest FIFO beats the shallowest.
	if pts[len(pts)-1].WorstCase <= pts[0].WorstCase {
		t.Error("depth 64 should outperform depth 2")
	}
}
