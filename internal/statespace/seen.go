package statespace

import (
	"bytes"
	"hash/maphash"
	"runtime"
	"sync"
)

// visit is the record stored per distinct state: the absolute time the
// state was first reached and the reference actor's completion count at
// that instant.
type visit struct {
	time        int64
	completions int64
}

// seenTable is the state store of one exploration: an open-addressing hash
// table over an append-only packed-key arena. Collisions are resolved by
// byte comparison, so the table never stores per-state heap objects or
// string keys. It is owned by its exploration and needs no locks.
type seenTable struct {
	seed   maphash.Seed
	mask   uint64
	slots  []int32 // arena index + 1; 0 = empty
	hashes []uint64
	offs   []uint32 // offs[i]..offs[i+1] is state i's key in arena
	arena  []byte
	visits []visit
}

// freeTables recycles seen-tables between explorations, so repeated
// analyses (buffer minimization, DSE sweeps, the service) reuse grown
// storage instead of each cold-allocating. It holds at most GOMAXPROCS
// tables, as many as can explore at once, and unlike a sync.Pool a GC
// never empties it: a released table is reused by the next exploration,
// which makes an analysis's allocation count deterministic.
var freeTables struct {
	sync.Mutex
	list []*seenTable
}

// initStates is the state capacity of a cold-allocated table.
const initStates = 1 << 8

// getSeenTable returns an empty table for keys of about keyBytes each: the
// most recently released one, which keeps its grown capacity, or a cold
// allocation sized for initStates such keys.
func getSeenTable(keyBytes int) *seenTable {
	freeTables.Lock()
	if n := len(freeTables.list); n > 0 {
		s := freeTables.list[n-1]
		freeTables.list[n-1] = nil
		freeTables.list = freeTables.list[:n-1]
		freeTables.Unlock()
		s.reset()
		return s
	}
	freeTables.Unlock()
	if keyBytes < 4 {
		keyBytes = 4
	}
	s := &seenTable{seed: maphash.MakeSeed()}
	const slots = 1 << 10 // keeps initStates below the 3/4 load factor
	s.slots = make([]int32, slots)
	s.mask = uint64(slots - 1)
	s.offs = make([]uint32, 1, initStates+1)
	s.arena = make([]byte, 0, initStates*keyBytes)
	s.visits = make([]visit, 0, initStates)
	s.hashes = make([]uint64, 0, initStates)
	return s
}

// release returns the table to the free list, or drops it when the list
// is full. The caller must not touch it afterwards; nothing in an analysis
// Result aliases table memory.
func (s *seenTable) release() {
	freeTables.Lock()
	if len(freeTables.list) < runtime.GOMAXPROCS(0) {
		freeTables.list = append(freeTables.list, s)
	}
	freeTables.Unlock()
}

// reset empties the table, keeping every backing array.
func (s *seenTable) reset() {
	clear(s.slots)
	s.offs = s.offs[:1]
	s.arena = s.arena[:0]
	s.visits = s.visits[:0]
	s.hashes = s.hashes[:0]
}

// hash returns the table's hash of key, to pass to lookupOrInsert.
func (s *seenTable) hash(key []byte) uint64 { return maphash.Bytes(s.seed, key) }

// size is the number of distinct states stored.
func (s *seenTable) size() int { return len(s.visits) }

// lookupOrInsert returns the stored visit and true when key (with
// precomputed hash h) is already present; otherwise it records (key, v)
// and returns false.
func (s *seenTable) lookupOrInsert(h uint64, key []byte, v visit) (visit, bool) {
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
	return visit{}, false
}

// growArena doubles the arena, from at least 4 KiB. Doubling (instead of
// append's shrinking growth factor) bounds re-copies.
func (s *seenTable) growArena(need int) {
	nc := max(2*cap(s.arena), 1<<12)
	for nc < len(s.arena)+need {
		nc *= 2
	}
	na := make([]byte, len(s.arena), nc)
	copy(na, s.arena)
	s.arena = na
}

// grow doubles the slot array and rehashes the stored indices (the arena
// itself never moves entries).
func (s *seenTable) grow() {
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
