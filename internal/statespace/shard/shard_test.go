package shard

import (
	"encoding/binary"
	"testing"
)

func key(i int) []byte {
	var b [6]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(i))
	b[4] = byte(i >> 3)
	b[5] = 0xA5
	return b[:]
}

func TestLookupOrInsert(t *testing.T) {
	s := Get(0)
	defer s.Release()
	const n = 5000 // crosses several slot doublings and arena growths
	for i := 0; i < n; i++ {
		k := key(i)
		if _, ok := s.LookupOrInsert(s.Hash(k), k, Visit{Time: int64(i), Completions: int64(2 * i)}); ok {
			t.Fatalf("state %d reported as revisit on first insert", i)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := 0; i < n; i++ {
		k := key(i)
		v, ok := s.LookupOrInsert(s.Hash(k), k, Visit{Time: -1, Completions: -1})
		if !ok {
			t.Fatalf("state %d not found on lookup", i)
		}
		if v.Time != int64(i) || v.Completions != int64(2*i) {
			t.Fatalf("state %d visit = %+v, want {%d %d}", i, v, i, 2*i)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len after lookups = %d, want %d (lookups must not insert)", s.Len(), n)
	}
	if s.ArenaBytes() != n*len(key(0)) {
		t.Fatalf("ArenaBytes = %d, want %d", s.ArenaBytes(), n*len(key(0)))
	}
}

func TestVariableLengthKeys(t *testing.T) {
	s := Get(0)
	defer s.Release()
	// A key that is a prefix of another must stay distinct.
	long := []byte{1, 2, 3, 4, 5}
	short := long[:3]
	if _, ok := s.LookupOrInsert(s.Hash(long), long, Visit{Time: 1}); ok {
		t.Fatal("long key present in empty segment")
	}
	if _, ok := s.LookupOrInsert(s.Hash(short), short, Visit{Time: 2}); ok {
		t.Fatal("prefix key matched longer stored key")
	}
	if v, ok := s.LookupOrInsert(s.Hash(long), long, Visit{}); !ok || v.Time != 1 {
		t.Fatalf("long key lookup = %+v,%v", v, ok)
	}
	if v, ok := s.LookupOrInsert(s.Hash(short), short, Visit{}); !ok || v.Time != 2 {
		t.Fatalf("short key lookup = %+v,%v", v, ok)
	}
}

func TestResetAndReuse(t *testing.T) {
	s := Get(6)
	for i := 0; i < 2000; i++ {
		k := key(i)
		s.LookupOrInsert(s.Hash(k), k, Visit{Time: int64(i)})
	}
	grownSlots, grownArena := s.Slots(), cap(s.arena)
	s.Reset()
	if s.Len() != 0 || s.ArenaBytes() != 0 {
		t.Fatalf("after Reset: Len=%d ArenaBytes=%d, want 0,0", s.Len(), s.ArenaBytes())
	}
	if s.Slots() != grownSlots || cap(s.arena) != grownArena {
		t.Fatal("Reset must keep grown capacity")
	}
	// No stale hit may survive a reset.
	k := key(17)
	if _, ok := s.LookupOrInsert(s.Hash(k), k, Visit{Time: 99}); ok {
		t.Fatal("stale state visible after Reset")
	}
	s.Release()

	// A released segment comes back from the pool empty but still grown.
	r := Get(6)
	if r != s {
		t.Skip("pool did not return the released segment (GC ran); nothing to assert")
	}
	if r.Len() != 0 {
		t.Fatalf("recycled segment not empty: Len=%d", r.Len())
	}
	if r.Slots() != grownSlots {
		t.Fatalf("recycled segment lost capacity: slots=%d, want %d", r.Slots(), grownSlots)
	}
	r.Release()
}

func TestClassFor(t *testing.T) {
	if c := classFor(0); c != 0 {
		t.Errorf("classFor(0) = %d", c)
	}
	if c := classFor(1 << minClassBits); c != 0 {
		t.Errorf("classFor(4KiB) = %d", c)
	}
	if c := classFor(1<<minClassBits + 1); c != 1 {
		t.Errorf("classFor(4KiB+1) = %d", c)
	}
	if c := classFor(1 << 30); c != numClasses-1 {
		t.Errorf("classFor(1GiB) = %d, want top class %d", c, numClasses-1)
	}
}
