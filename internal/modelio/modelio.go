// Package modelio implements the interchange formats of the design flow:
// SDF3-style XML for the application model, XML for the template-based
// architecture model, and XML for the mapping that the SDF3 step hands to
// the MAMPS platform generator.
//
// The common application format consumed by both the mapping tool and the
// platform generator is the automation contribution the paper claims over
// CA-MPSoC (Section 2): no manual translation step between the tools, so
// no user-introduced translation errors.
package modelio

import (
	"encoding/xml"
	"fmt"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/sdf"
)

// ---- application model ----

type xmlApplication struct {
	XMLName    xml.Name       `xml:"applicationGraph"`
	Name       string         `xml:"name,attr"`
	Throughput float64        `xml:"throughputConstraint,attr,omitempty"`
	Actors     []xmlActor     `xml:"sdf>actor"`
	Channels   []xmlChannel   `xml:"sdf>channel"`
	Properties []xmlActorProp `xml:"actorProperties"`
}

type xmlActor struct {
	Name string `xml:"name,attr"`
}

type xmlChannel struct {
	Name          string `xml:"name,attr"`
	SrcActor      string `xml:"srcActor,attr"`
	SrcRate       int    `xml:"srcRate,attr"`
	DstActor      string `xml:"dstActor,attr"`
	DstRate       int    `xml:"dstRate,attr"`
	InitialTokens int    `xml:"initialTokens,attr"`
	TokenSize     int    `xml:"tokenSize,attr"`
}

type xmlActorProp struct {
	Actor      string         `xml:"actor,attr"`
	Processors []xmlProcessor `xml:"processor"`
}

type xmlProcessor struct {
	Type             string `xml:"type,attr"`
	NeedsPeripherals bool   `xml:"needsPeripherals,attr,omitempty"`
	ExecutionTime    int64  `xml:"executionTime>time"`
	InstrMem         int    `xml:"memory>instr"`
	DataMem          int    `xml:"memory>data"`
}

// WriteApp serializes an application model (graph structure and actor
// metrics; the executable behaviour stays in Go).
func WriteApp(app *appmodel.App) ([]byte, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	g := app.Graph
	doc := xmlApplication{Name: app.Name, Throughput: app.TargetThroughput}
	for _, a := range g.Actors() {
		doc.Actors = append(doc.Actors, xmlActor{Name: a.Name})
		prop := xmlActorProp{Actor: a.Name}
		for _, im := range app.Impls[a.ID] {
			prop.Processors = append(prop.Processors, xmlProcessor{
				Type:             string(im.PE),
				NeedsPeripherals: im.NeedsPeripherals,
				ExecutionTime:    im.WCET,
				InstrMem:         im.InstrMem,
				DataMem:          im.DataMem,
			})
		}
		doc.Properties = append(doc.Properties, prop)
	}
	for _, c := range g.Channels() {
		doc.Channels = append(doc.Channels, xmlChannel{
			Name:          c.Name,
			SrcActor:      g.Actor(c.Src).Name,
			SrcRate:       c.SrcRate,
			DstActor:      g.Actor(c.Dst).Name,
			DstRate:       c.DstRate,
			InitialTokens: c.InitialTokens,
			TokenSize:     c.TokenSize,
		})
	}
	return marshal(doc)
}

// ReadApp parses an application model. The result is analysis-only: actor
// implementations carry metrics but no executable behaviour. Channel order
// is preserved, so actor port orders match the original model.
func ReadApp(data []byte) (*appmodel.App, error) {
	var doc xmlApplication
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("modelio: parsing application: %w", err)
	}
	if doc.Name == "" {
		return nil, fmt.Errorf("modelio: application has no name")
	}
	// The sdf constructors panic on these violations (they are
	// programming errors in Go-built models); a document gets an error
	// naming the actor or channel instead.
	g := sdf.NewGraph(doc.Name)
	for _, a := range doc.Actors {
		if g.ActorByName(a.Name) != nil {
			return nil, fmt.Errorf("modelio: duplicate actor name %q", a.Name)
		}
		g.AddActor(a.Name, 0)
	}
	for _, c := range doc.Channels {
		src := g.ActorByName(c.SrcActor)
		dst := g.ActorByName(c.DstActor)
		if src == nil || dst == nil {
			return nil, fmt.Errorf("modelio: channel %q references unknown actor", c.Name)
		}
		if c.SrcRate <= 0 || c.DstRate <= 0 {
			return nil, fmt.Errorf("modelio: channel %q has a non-positive rate (srcRate %d, dstRate %d)", c.Name, c.SrcRate, c.DstRate)
		}
		if c.InitialTokens < 0 {
			return nil, fmt.Errorf("modelio: channel %q has negative initialTokens %d", c.Name, c.InitialTokens)
		}
		nc := g.Connect(src, dst, c.SrcRate, c.DstRate, c.InitialTokens)
		nc.Name = c.Name
		nc.TokenSize = c.TokenSize
	}
	app := appmodel.New(doc.Name, g)
	app.TargetThroughput = doc.Throughput
	for _, prop := range doc.Properties {
		a := g.ActorByName(prop.Actor)
		if a == nil {
			return nil, fmt.Errorf("modelio: properties for unknown actor %q", prop.Actor)
		}
		for _, p := range prop.Processors {
			app.AddImpl(a, appmodel.Impl{
				PE:               arch.PEType(p.Type),
				WCET:             p.ExecutionTime,
				InstrMem:         p.InstrMem,
				DataMem:          p.DataMem,
				NeedsPeripherals: p.NeedsPeripherals,
			})
			// The graph's default execution time is the largest WCET over
			// the implementations.
			if p.ExecutionTime > a.ExecTime {
				a.ExecTime = p.ExecutionTime
			}
		}
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}

// ---- architecture model ----

type xmlArchitecture struct {
	XMLName      xml.Name        `xml:"architectureGraph"`
	Name         string          `xml:"name,attr"`
	ClockMHz     int             `xml:"clockMHz,attr"`
	Tiles        []xmlTile       `xml:"tile"`
	Interconnect xmlInterconnect `xml:"interconnect"`
}

type xmlTile struct {
	Name        string   `xml:"name,attr"`
	Kind        string   `xml:"kind,attr"`
	PE          string   `xml:"pe,attr"`
	InstrMem    int      `xml:"instrMem,attr"`
	DataMem     int      `xml:"dataMem,attr"`
	CA          bool     `xml:"ca,attr,omitempty"`
	Peripherals []string `xml:"peripheral"`
}

type xmlInterconnect struct {
	Kind         string `xml:"kind,attr"`
	FIFODepth    int    `xml:"fifoDepth,attr,omitempty"`
	WiresPerLink int    `xml:"wiresPerLink,attr,omitempty"`
	HopLatency   int    `xml:"hopLatency,attr,omitempty"`
	FlowControl  bool   `xml:"flowControl,attr,omitempty"`
}

// WriteArch serializes an architecture model.
func WriteArch(p *arch.Platform) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	doc := xmlArchitecture{Name: p.Name, ClockMHz: p.ClockMHz}
	for _, t := range p.Tiles {
		doc.Tiles = append(doc.Tiles, xmlTile{
			Name:        t.Name,
			Kind:        t.Kind.String(),
			PE:          string(t.PE),
			InstrMem:    t.InstrMem,
			DataMem:     t.DataMem,
			CA:          t.HasCA,
			Peripherals: t.Peripherals,
		})
	}
	doc.Interconnect = xmlInterconnect{
		Kind:         p.Interconnect.Kind.String(),
		FIFODepth:    p.Interconnect.FIFODepth,
		WiresPerLink: p.Interconnect.WiresPerLink,
		HopLatency:   p.Interconnect.HopLatency,
		FlowControl:  p.Interconnect.FlowControl,
	}
	return marshal(doc)
}

// ReadArch parses an architecture model.
func ReadArch(data []byte) (*arch.Platform, error) {
	var doc xmlArchitecture
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("modelio: parsing architecture: %w", err)
	}
	p := &arch.Platform{Name: doc.Name, ClockMHz: doc.ClockMHz}
	for _, t := range doc.Tiles {
		kind, err := parseTileKind(t.Kind)
		if err != nil {
			return nil, err
		}
		p.Tiles = append(p.Tiles, &arch.Tile{
			Name:        t.Name,
			Kind:        kind,
			PE:          arch.PEType(t.PE),
			InstrMem:    t.InstrMem,
			DataMem:     t.DataMem,
			HasCA:       t.CA,
			Peripherals: t.Peripherals,
		})
	}
	switch doc.Interconnect.Kind {
	case "fsl":
		p.Interconnect = arch.Interconnect{Kind: arch.FSL, FIFODepth: doc.Interconnect.FIFODepth}
	case "noc":
		p.Interconnect = arch.Interconnect{
			Kind:         arch.NoC,
			WiresPerLink: doc.Interconnect.WiresPerLink,
			HopLatency:   doc.Interconnect.HopLatency,
			FlowControl:  doc.Interconnect.FlowControl,
		}
	default:
		return nil, fmt.Errorf("modelio: unknown interconnect kind %q", doc.Interconnect.Kind)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseTileKind(s string) (arch.TileKind, error) {
	switch s {
	case "master":
		return arch.MasterTile, nil
	case "slave":
		return arch.SlaveTile, nil
	case "ip":
		return arch.IPTile, nil
	default:
		return 0, fmt.Errorf("modelio: unknown tile kind %q", s)
	}
}

func marshal(v any) ([]byte, error) {
	out, err := xml.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), append(out, '\n')...), nil
}
