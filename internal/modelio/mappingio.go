package modelio

import (
	"encoding/xml"
	"fmt"

	"mamps/internal/mapping"
)

// Mapping interchange: the output of the SDF3 step in the form the MAMPS
// platform generator consumes. Serializing it lets the two steps run as
// separate tool invocations, as in the published flow.

type xmlMapping struct {
	XMLName     xml.Name        `xml:"mapping"`
	Application string          `xml:"application,attr"`
	Platform    string          `xml:"platform,attr"`
	Throughput  float64         `xml:"guaranteedThroughput,attr"`
	Bindings    []xmlBinding    `xml:"bind"`
	Schedules   []xmlSchedule   `xml:"schedule"`
	Buffers     []xmlBuffer     `xml:"buffer"`
	Connections []xmlConnection `xml:"connection"`
}

type xmlBinding struct {
	Actor string `xml:"actor,attr"`
	Tile  string `xml:"tile,attr"`
}

type xmlSchedule struct {
	Tile    string     `xml:"tile,attr"`
	Entries []xmlEntry `xml:"entry"`
}

type xmlEntry struct {
	Actor string `xml:"actor,attr"`
}

type xmlBuffer struct {
	Channel  string `xml:"channel,attr"`
	Capacity int    `xml:"capacity,attr"`
}

type xmlConnection struct {
	Channel string `xml:"channel,attr"`
	Wires   int    `xml:"wires,attr"`
	Hops    int    `xml:"hops,attr"`
}

// WriteMapping serializes the mapping interchange document.
func WriteMapping(m *mapping.Mapping) ([]byte, error) {
	g := m.App.Graph
	doc := xmlMapping{
		Application: m.App.Name,
		Platform:    m.Platform.Name,
		Throughput:  m.Analysis.Throughput.Float(),
	}
	for _, a := range g.Actors() {
		doc.Bindings = append(doc.Bindings, xmlBinding{
			Actor: a.Name,
			Tile:  m.Platform.Tiles[m.TileOf[a.ID]].Name,
		})
	}
	for t, sched := range m.Schedules {
		if len(sched) == 0 {
			continue
		}
		xs := xmlSchedule{Tile: m.Platform.Tiles[t].Name}
		for _, aid := range sched {
			xs.Entries = append(xs.Entries, xmlEntry{Actor: g.Actor(aid).Name})
		}
		doc.Schedules = append(doc.Schedules, xs)
	}
	for _, c := range g.Channels() {
		if c.IsSelfLoop() {
			continue
		}
		doc.Buffers = append(doc.Buffers, xmlBuffer{Channel: c.Name, Capacity: m.Buffers[c.ID]})
	}
	for _, c := range g.Channels() {
		if conn, ok := m.Connections[c.ID]; ok {
			doc.Connections = append(doc.Connections, xmlConnection{
				Channel: c.Name, Wires: conn.Wires, Hops: conn.Hops(),
			})
		}
	}
	return marshal(doc)
}

// MappingDoc is the parsed form of a mapping interchange document, for
// tools that inspect a mapping without the in-memory objects.
type MappingDoc struct {
	Application string
	Platform    string
	Throughput  float64
	TileOf      map[string]string   // actor -> tile
	Schedules   map[string][]string // tile -> actor order
	Buffers     map[string]int      // channel -> capacity
}

// ReadMapping parses a mapping interchange document.
func ReadMapping(data []byte) (*MappingDoc, error) {
	var doc xmlMapping
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("modelio: parsing mapping: %w", err)
	}
	out := &MappingDoc{
		Application: doc.Application,
		Platform:    doc.Platform,
		Throughput:  doc.Throughput,
		TileOf:      make(map[string]string),
		Schedules:   make(map[string][]string),
		Buffers:     make(map[string]int),
	}
	for _, b := range doc.Bindings {
		out.TileOf[b.Actor] = b.Tile
	}
	for _, s := range doc.Schedules {
		for _, e := range s.Entries {
			out.Schedules[s.Tile] = append(out.Schedules[s.Tile], e.Actor)
		}
	}
	for _, b := range doc.Buffers {
		out.Buffers[b.Channel] = b.Capacity
	}
	return out, nil
}
