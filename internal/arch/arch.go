// Package arch models the MAMPS template-based architecture: tiles built
// from a processing element, local memories and a standardized network
// interface, connected by one of two interconnects (Xilinx FSL
// point-to-point links or a spatial-division-multiplexing mesh NoC).
//
// The architecture model is the second input of the design flow (the
// paper's Figure 1); the platform generator instantiates template
// components from it, and the communication model derives its timing
// parameters from it.
package arch

import (
	"fmt"

	"mamps/internal/fsl"
)

// PEType identifies a processing-element type. Actor implementations are
// compiled per PE type; the application model lists, for every actor, the
// PE types it has an implementation for with their WCET and memory needs.
type PEType string

// MicroBlaze is the PE type of the current MAMPS tile template, a Xilinx
// soft core with FSL ports.
const MicroBlaze PEType = "microblaze"

// TileKind distinguishes the tile variants of the template (the paper's
// Figure 3).
type TileKind int

const (
	// MasterTile is a processor tile with access to the board peripherals
	// (Tile 1 in Figure 3). A platform has exactly one master tile.
	MasterTile TileKind = iota
	// SlaveTile is a processor tile without peripheral access (Tile 2).
	SlaveTile
	// IPTile is a hardware actor connected directly to the network
	// interface (Tile 4). Not yet offered by the template (Section 5.3),
	// but part of the architecture model.
	IPTile
)

func (k TileKind) String() string {
	switch k {
	case MasterTile:
		return "master"
	case SlaveTile:
		return "slave"
	case IPTile:
		return "ip"
	default:
		return fmt.Sprintf("TileKind(%d)", int(k))
	}
}

// MaxTileMemory is the per-tile memory limit of the MicroBlaze tile
// template: up to 256 kB in a modified Harvard configuration.
const MaxTileMemory = 256 * 1024

// PlatformInstrOverhead and PlatformDataOverhead are the footprint of the
// generated platform layer on each tile: the static-order scheduler
// (a lookup table and its driver loop) and the communication library
// implementing the network interface.
const (
	PlatformInstrOverhead = 8 * 1024
	PlatformDataOverhead  = 2 * 1024
)

// Tile is one processing element of the platform.
type Tile struct {
	Name string
	Kind TileKind
	PE   PEType

	// InstrMem and DataMem are the instruction and data memory capacities
	// in bytes (modified Harvard architecture: separate limits, shared
	// total budget of MaxTileMemory).
	InstrMem int
	DataMem  int

	// HasCA marks a tile extended with a communication assist that
	// performs token (de)serialization instead of the PE (Tile 3 in
	// Figure 3).
	HasCA bool

	// Peripherals available on this tile (master tiles only).
	Peripherals []string
}

// Validate checks the tile against the template limits.
func (t *Tile) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("arch: tile with empty name")
	}
	if t.Kind != IPTile && t.PE == "" {
		return fmt.Errorf("arch: tile %q has no PE type", t.Name)
	}
	if t.InstrMem < 0 || t.DataMem < 0 {
		return fmt.Errorf("arch: tile %q has negative memory", t.Name)
	}
	if t.InstrMem+t.DataMem > MaxTileMemory {
		return fmt.Errorf("arch: tile %q exceeds the %d byte tile memory limit (%d)",
			t.Name, MaxTileMemory, t.InstrMem+t.DataMem)
	}
	if t.Kind != MasterTile && len(t.Peripherals) > 0 {
		return fmt.Errorf("arch: non-master tile %q has peripherals; sharing peripherals across tiles breaks predictability", t.Name)
	}
	return nil
}

// InterconnectKind selects the interconnect variant.
type InterconnectKind int

const (
	// FSL is the point-to-point interconnect using Xilinx Fast Simplex
	// Links: one dedicated 32-bit FIFO per connection.
	FSL InterconnectKind = iota
	// NoC is the SDM mesh network-on-chip based on Yang et al. [17] with
	// the flow control added by the MAMPS integration.
	NoC
)

func (k InterconnectKind) String() string {
	switch k {
	case FSL:
		return "fsl"
	case NoC:
		return "noc"
	default:
		return fmt.Sprintf("InterconnectKind(%d)", int(k))
	}
}

// Interconnect describes the interconnect configuration. All tiles attach
// to it through the standardized 32-bit-word network interface.
type Interconnect struct {
	Kind InterconnectKind

	// FIFODepth is the per-link FIFO depth in words (FSL interconnect).
	FIFODepth int

	// WiresPerLink is the SDM bundle width of each mesh link in wires
	// (NoC interconnect). A connection assigned all 32 wires of a link
	// moves one 32-bit word per cycle.
	WiresPerLink int

	// HopLatency is the router traversal latency in cycles per hop (NoC).
	HopLatency int

	// FlowControl marks the credit-based flow control added to the NoC by
	// this work (Section 5.3.1); it costs about 12% extra router area and
	// one extra cycle of credit-return latency per hop.
	FlowControl bool
}

// MaxFIFODepth caps the FSL FIFO depth in words. The simulator allocates
// every link's ring at full depth and the analysis takes the depth as the
// link's network-buffer capacity, so the state space grows with it: a
// depth of 10^6 costs gigabytes on a 3-tile MJPEG flow. The cap sits far
// above the 2–64 words the FIFO ablation sweeps and the template's 16.
const MaxFIFODepth = 8192

// Validate checks interconnect parameters.
func (ic *Interconnect) Validate() error {
	switch ic.Kind {
	case FSL:
		if ic.FIFODepth <= 0 {
			return fmt.Errorf("arch: FSL interconnect needs a positive FIFO depth (got %d)", ic.FIFODepth)
		}
		if ic.FIFODepth > MaxFIFODepth {
			return fmt.Errorf("arch: FSL FIFO depth %d exceeds the cap of %d words", ic.FIFODepth, MaxFIFODepth)
		}
	case NoC:
		if ic.WiresPerLink <= 0 || ic.WiresPerLink > 32 {
			return fmt.Errorf("arch: NoC wires per link must be in 1..32 (got %d)", ic.WiresPerLink)
		}
		if ic.HopLatency <= 0 {
			return fmt.Errorf("arch: NoC hop latency must be positive (got %d)", ic.HopLatency)
		}
	default:
		return fmt.Errorf("arch: unknown interconnect kind %d", ic.Kind)
	}
	return nil
}

// Platform is a complete architecture model: a set of tiles and the
// interconnect that joins them.
type Platform struct {
	Name         string
	Tiles        []*Tile
	Interconnect Interconnect

	// ClockMHz is the system clock; the design flow uses the clock cycle
	// as its base time unit, so this only scales reported wall-clock
	// figures.
	ClockMHz int
}

// TileByName returns the named tile or nil.
func (p *Platform) TileByName(name string) *Tile {
	for _, t := range p.Tiles {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// TileIndex returns the index of the named tile, or -1.
func (p *Platform) TileIndex(name string) int {
	for i, t := range p.Tiles {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks the platform: unique tile names, valid tiles, exactly one
// master tile among processor tiles, and a valid interconnect.
func (p *Platform) Validate() error {
	if len(p.Tiles) == 0 {
		return fmt.Errorf("arch: platform %q has no tiles", p.Name)
	}
	seen := make(map[string]bool, len(p.Tiles))
	masters := 0
	for _, t := range p.Tiles {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.Name] {
			return fmt.Errorf("arch: duplicate tile name %q", t.Name)
		}
		seen[t.Name] = true
		if t.Kind == MasterTile {
			masters++
		}
	}
	if masters != 1 {
		return fmt.Errorf("arch: platform %q has %d master tiles, want exactly 1", p.Name, masters)
	}
	if err := p.Interconnect.Validate(); err != nil {
		return err
	}
	if p.ClockMHz <= 0 {
		return fmt.Errorf("arch: platform %q has non-positive clock", p.Name)
	}
	return nil
}

// Template generates platforms from the template components. This is the
// automated "architecture model generation" step of Table 1.
type Template struct {
	// DefaultMemory is the memory installed per tile half (instruction
	// and data each get this much) before the platform generator shrinks
	// it to the application's needs.
	DefaultMemory int
	// FIFODepth for FSL platforms.
	FIFODepth int
	// WiresPerLink and HopLatency for NoC platforms.
	WiresPerLink int
	HopLatency   int
	// ClockMHz of the generated platform (ML605 reference design).
	ClockMHz int
}

// DefaultTemplate returns the template matching the paper's ML605/Virtex-6
// reference configuration.
func DefaultTemplate() Template {
	return Template{
		DefaultMemory: 128 * 1024,
		FIFODepth:     fsl.DefaultDepth,
		WiresPerLink:  32,
		HopLatency:    3,
		ClockMHz:      100,
	}
}

// Generate instantiates a platform with n processor tiles (one master,
// n−1 slaves) connected by the requested interconnect.
func (tpl Template) Generate(name string, n int, kind InterconnectKind) (*Platform, error) {
	if n <= 0 {
		return nil, fmt.Errorf("arch: platform needs at least one tile (got %d)", n)
	}
	p := &Platform{Name: name, ClockMHz: tpl.ClockMHz}
	for i := 0; i < n; i++ {
		t := &Tile{
			Name:     fmt.Sprintf("tile%d", i),
			Kind:     SlaveTile,
			PE:       MicroBlaze,
			InstrMem: tpl.DefaultMemory,
			DataMem:  tpl.DefaultMemory,
		}
		if i == 0 {
			t.Kind = MasterTile
			t.Peripherals = []string{"uart", "timer", "sysace"}
		}
		p.Tiles = append(p.Tiles, t)
	}
	switch kind {
	case FSL:
		p.Interconnect = Interconnect{Kind: FSL, FIFODepth: tpl.FIFODepth}
	case NoC:
		p.Interconnect = Interconnect{
			Kind:         NoC,
			WiresPerLink: tpl.WiresPerLink,
			HopLatency:   tpl.HopLatency,
			FlowControl:  true,
		}
	default:
		return nil, fmt.Errorf("arch: unknown interconnect kind %d", kind)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
