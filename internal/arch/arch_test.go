package arch

import (
	"strings"
	"testing"
)

func TestTemplateGenerateFSL(t *testing.T) {
	p, err := DefaultTemplate().Generate("p", 4, FSL)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tiles) != 4 {
		t.Fatalf("tiles = %d, want 4", len(p.Tiles))
	}
	if p.Tiles[0].Kind != MasterTile {
		t.Error("tile0 should be the master")
	}
	for _, tl := range p.Tiles[1:] {
		if tl.Kind != SlaveTile {
			t.Errorf("tile %s kind = %v, want slave", tl.Name, tl.Kind)
		}
	}
	if p.Interconnect.Kind != FSL || p.Interconnect.FIFODepth != 16 {
		t.Errorf("interconnect = %+v", p.Interconnect)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTemplateGenerateNoC(t *testing.T) {
	p, err := DefaultTemplate().Generate("p", 5, NoC)
	if err != nil {
		t.Fatal(err)
	}
	if p.Interconnect.Kind != NoC {
		t.Fatalf("kind = %v", p.Interconnect.Kind)
	}
	if !p.Interconnect.FlowControl {
		t.Error("MAMPS NoC must have flow control")
	}
}

func TestGenerateZeroTilesFails(t *testing.T) {
	if _, err := DefaultTemplate().Generate("p", 0, FSL); err == nil {
		t.Fatal("expected error")
	}
}

func TestValidateDuplicateNames(t *testing.T) {
	p, _ := DefaultTemplate().Generate("p", 2, FSL)
	p.Tiles[1].Name = p.Tiles[0].Name
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateMasterCount(t *testing.T) {
	p, _ := DefaultTemplate().Generate("p", 2, FSL)
	p.Tiles[1].Kind = MasterTile
	p.Tiles[1].Peripherals = []string{"uart"}
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for two masters")
	}
	p.Tiles[0].Kind = SlaveTile
	p.Tiles[0].Peripherals = nil
	p.Tiles[1].Kind = SlaveTile
	p.Tiles[1].Peripherals = nil
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for zero masters")
	}
}

func TestTileMemoryLimit(t *testing.T) {
	tl := &Tile{Name: "t", Kind: SlaveTile, PE: MicroBlaze, InstrMem: 200 * 1024, DataMem: 100 * 1024}
	if err := tl.Validate(); err == nil {
		t.Fatal("expected memory limit error")
	}
	tl.DataMem = 56 * 1024
	if err := tl.Validate(); err != nil {
		t.Fatalf("256k exactly should pass: %v", err)
	}
}

func TestSlavePeripheralsRejected(t *testing.T) {
	tl := &Tile{Name: "t", Kind: SlaveTile, PE: MicroBlaze, Peripherals: []string{"uart"}}
	if err := tl.Validate(); err == nil {
		t.Fatal("expected predictability violation error")
	}
}

func TestInterconnectValidate(t *testing.T) {
	bad := []Interconnect{
		{Kind: FSL, FIFODepth: 0},
		{Kind: FSL, FIFODepth: MaxFIFODepth + 1},
		{Kind: NoC, WiresPerLink: 0, HopLatency: 3},
		{Kind: NoC, WiresPerLink: 64, HopLatency: 3},
		{Kind: NoC, WiresPerLink: 16, HopLatency: 0},
		{Kind: InterconnectKind(9)},
	}
	for i, ic := range bad {
		if err := ic.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, ic)
		}
	}
	good := []Interconnect{
		{Kind: FSL, FIFODepth: 4},
		{Kind: FSL, FIFODepth: MaxFIFODepth},
		{Kind: NoC, WiresPerLink: 16, HopLatency: 2},
	}
	for i, ic := range good {
		if err := ic.Validate(); err != nil {
			t.Errorf("case %d: unexpected error: %v", i, err)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if MasterTile.String() != "master" || SlaveTile.String() != "slave" || IPTile.String() != "ip" {
		t.Error("TileKind.String broken")
	}
	if FSL.String() != "fsl" || NoC.String() != "noc" {
		t.Error("InterconnectKind.String broken")
	}
	if s := TileKind(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown kind string = %q", s)
	}
}

func TestTileLookup(t *testing.T) {
	p, _ := DefaultTemplate().Generate("p", 3, FSL)
	if p.TileByName("tile1") == nil {
		t.Error("TileByName failed")
	}
	if p.TileByName("nope") != nil {
		t.Error("TileByName should return nil for unknown")
	}
	if p.TileIndex("tile2") != 2 {
		t.Error("TileIndex failed")
	}
	if p.TileIndex("nope") != -1 {
		t.Error("TileIndex should return -1")
	}
}
