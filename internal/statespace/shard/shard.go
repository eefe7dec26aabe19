// Package shard provides the state store of the state-space explorer: an
// open-addressing hash segment over an append-only packed-key arena.
// Collisions are resolved by byte comparison, so the segment never stores
// per-state heap objects or string keys.
//
// A Segment is the seen-table of one exploration and is owned by it, so it
// needs no locks. Segments recycle through a size-classed pool: a released
// segment keeps the capacity its last exploration grew to, so repeated
// analyses (buffer minimization, DSE sweeps, the service) reuse grown
// storage instead of each cold-allocating.
package shard

import (
	"bytes"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Visit is the record stored per distinct state: the absolute time the
// state was first reached and the reference actor's completion count at
// that instant.
type Visit struct {
	Time        int64
	Completions int64
}

// Segment is one open-addressing hash segment over an append-only state
// arena. It is not safe for concurrent use.
type Segment struct {
	seed   maphash.Seed
	mask   uint64
	slots  []int32 // arena index + 1; 0 = empty
	hashes []uint64
	offs   []uint32 // offs[i]..offs[i+1] is state i's key in arena
	arena  []byte
	visits []Visit
}

// Size classes are powers of two over the arena byte capacity; everything
// below the smallest class shares it, everything above the largest shares
// that.
const (
	minClassBits = 12 // 4 KiB, the arena-doubling floor
	maxClassBits = 27 // 128 MiB
	numClasses   = maxClassBits - minClassBits + 1
)

func classFor(n int) int {
	c := 0
	for c < numClasses-1 && n > 1<<(minClassBits+c) {
		c++
	}
	return c
}

// segPool recycles whole segments, bucketed by the size class of the arena
// capacity they grew to. classMask records which classes have ever held a
// segment: Get probes only those pools, so the class scan normally touches
// one pool — probing an empty sync.Pool is not free (its per-P local array
// is re-pinned after every GC).
var (
	segPool   [numClasses]sync.Pool
	classMask atomic.Uint32
)

// initStates is the state capacity of a cold-allocated segment.
const initStates = 1 << 8

// Get returns an empty segment for keys of about keyBytes each. It prefers
// a recycled segment near the size class of initStates such keys —
// scanning larger classes first, then smaller, because any recycled
// segment beats a cold allocation: a small one grows, a large one simply
// has headroom.
func Get(keyBytes int) *Segment {
	if keyBytes < 4 {
		keyBytes = 4
	}
	want := classFor(initStates * keyBytes)
	mask := classMask.Load()
	for c := want; c < numClasses; c++ {
		if mask&(1<<c) == 0 {
			continue
		}
		if v := segPool[c].Get(); v != nil {
			s := v.(*Segment)
			s.Reset()
			return s
		}
	}
	for c := want - 1; c >= 0; c-- {
		if mask&(1<<c) == 0 {
			continue
		}
		if v := segPool[c].Get(); v != nil {
			s := v.(*Segment)
			s.Reset()
			return s
		}
	}
	s := &Segment{seed: maphash.MakeSeed()}
	const slots = 1 << 10 // keeps initStates below the 3/4 load factor
	s.slots = make([]int32, slots)
	s.mask = uint64(slots - 1)
	s.offs = make([]uint32, 1, initStates+1)
	s.arena = make([]byte, 0, initStates*keyBytes)
	s.visits = make([]Visit, 0, initStates)
	s.hashes = make([]uint64, 0, initStates)
	return s
}

// Release returns the segment to the pool. The caller must not touch it
// afterwards; nothing in an analysis Result aliases segment memory.
func (s *Segment) Release() {
	c := classFor(cap(s.arena))
	segPool[c].Put(s)
	orBit(&classMask, c)
}

// orBit sets bit c in m (compare-and-swap loop; atomic Or needs go1.23).
func orBit(m *atomic.Uint32, c int) {
	for {
		old := m.Load()
		if old&(1<<c) != 0 || m.CompareAndSwap(old, old|1<<c) {
			return
		}
	}
}

// Reset empties the segment, keeping every backing array.
func (s *Segment) Reset() {
	clear(s.slots)
	s.offs = s.offs[:1]
	s.arena = s.arena[:0]
	s.visits = s.visits[:0]
	s.hashes = s.hashes[:0]
}

// Hash returns the segment's hash of key, to pass to LookupOrInsert.
func (s *Segment) Hash(key []byte) uint64 { return maphash.Bytes(s.seed, key) }

// Len is the number of distinct states stored.
func (s *Segment) Len() int { return len(s.visits) }

// ArenaBytes is the number of packed key bytes stored.
func (s *Segment) ArenaBytes() int { return len(s.arena) }

// Slots is the current slot-array size.
func (s *Segment) Slots() int { return len(s.slots) }

// LookupOrInsert returns the stored visit and true when key (with
// precomputed hash h) is already present; otherwise it records (key, v)
// and returns false.
func (s *Segment) LookupOrInsert(h uint64, key []byte, v Visit) (Visit, bool) {
	i := h & s.mask
	for {
		e := s.slots[i]
		if e == 0 {
			break
		}
		j := e - 1
		if s.hashes[j] == h && bytes.Equal(key, s.arena[s.offs[j]:s.offs[j+1]]) {
			return s.visits[j], true
		}
		i = (i + 1) & s.mask
	}
	n := len(s.visits)
	if len(s.arena)+len(key) > cap(s.arena) {
		s.growArena(len(key))
	}
	s.arena = append(s.arena, key...)
	s.offs = append(s.offs, uint32(len(s.arena)))
	s.visits = append(s.visits, v)
	s.hashes = append(s.hashes, h)
	s.slots[i] = int32(n + 1)
	if uint64(len(s.visits))*4 >= uint64(len(s.slots))*3 {
		s.grow()
	}
	return Visit{}, false
}

// growArena doubles the arena. Doubling (instead of append's shrinking
// growth factor) bounds re-copies.
func (s *Segment) growArena(need int) {
	nc := 2 * cap(s.arena)
	if nc < 1<<minClassBits {
		nc = 1 << minClassBits
	}
	for nc < len(s.arena)+need {
		nc *= 2
	}
	na := make([]byte, len(s.arena), nc)
	copy(na, s.arena)
	s.arena = na
}

// grow doubles the slot array and rehashes the stored indices (the arena
// itself never moves entries).
func (s *Segment) grow() {
	slots := make([]int32, len(s.slots)*2)
	mask := uint64(len(slots) - 1)
	for j, h := range s.hashes {
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(j + 1)
	}
	s.slots, s.mask = slots, mask
}
