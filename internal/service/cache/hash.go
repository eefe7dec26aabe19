// Canonical content hashing for the request and run-record keys.
//
// The cache is content-addressed: a key is the SHA-256 of a canonical
// serialization of the model a result was computed from. Canonical means
// independent of declaration order — an SDF graph hashes the same however
// its actors and channels were added, because the timed semantics of the
// graph do not depend on that order. Actor identity is the actor *name*
// (unique within a graph); channels are hashed as a sorted multiset of
// endpoint/rate/token attribute tuples with their (often auto-generated,
// order-dependent) names excluded.
//
// State-space analyses are keyed differently, in declaration order and
// with names (see analysisKey), because their results carry
// channel-ID-indexed data and name-bearing deadlock reports.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"mamps/internal/sdf"
)

// Hasher accumulates a canonical serialization and produces a cache key.
// The zero value is not usable; construct with NewHasher.
type Hasher struct {
	h   hash.Hash
	buf [binary.MaxVarintLen64]byte
}

// NewHasher returns a Hasher seeded with a domain-separation tag, so keys
// from different request kinds can never collide even over identical
// payloads.
func NewHasher(domain string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.String(domain)
	return h
}

// String appends a length-prefixed string.
func (h *Hasher) String(s string) *Hasher {
	h.Int(int64(len(s)))
	h.h.Write([]byte(s))
	return h
}

// Int appends a varint.
func (h *Hasher) Int(v int64) *Hasher {
	n := binary.PutVarint(h.buf[:], v)
	h.h.Write(h.buf[:n])
	return h
}

// Float appends a float64 by its IEEE-754 bit pattern.
func (h *Hasher) Float(v float64) *Hasher {
	binary.BigEndian.PutUint64(h.buf[:8], math.Float64bits(v))
	h.h.Write(h.buf[:8])
	return h
}

// Bool appends a boolean.
func (h *Hasher) Bool(v bool) *Hasher {
	if v {
		return h.Int(1)
	}
	return h.Int(0)
}

// Strings appends a length-prefixed list of strings in the given order.
func (h *Hasher) Strings(ss []string) *Hasher {
	h.Int(int64(len(ss)))
	for _, s := range ss {
		h.String(s)
	}
	return h
}

// Sum returns the accumulated key as a hex string. The Hasher remains
// usable; further writes extend the serialization.
func (h *Hasher) Sum() string { return hex.EncodeToString(h.h.Sum(nil)) }

// Graph appends the canonical form of an SDF graph: actors sorted by
// name with their timing attributes, then the channel attribute multiset
// sorted lexicographically. Declaration order and channel names do not
// influence the result.
func (h *Hasher) Graph(g *sdf.Graph) *Hasher {
	h.String("graph")
	names := g.SortedActorNames()
	h.Int(int64(len(names)))
	for _, name := range names {
		a := g.ActorByName(name)
		h.String(name).Int(a.ExecTime).Int(int64(a.MaxConcurrent))
	}
	lines := make([]string, 0, g.NumChannels())
	for _, c := range g.Channels() {
		var lh Hasher
		lh.h = sha256.New()
		lh.String(g.Actor(c.Src).Name).String(g.Actor(c.Dst).Name).
			Int(int64(c.SrcRate)).Int(int64(c.DstRate)).
			Int(int64(c.InitialTokens)).Int(int64(c.TokenSize))
		lines = append(lines, lh.Sum())
	}
	sort.Strings(lines)
	return h.Strings(lines)
}

// GraphKey returns the canonical content key of an SDF graph.
func GraphKey(g *sdf.Graph) string { return NewHasher("mamps/graph/v1").Graph(g).Sum() }
