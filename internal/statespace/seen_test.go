package statespace

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
)

func testKey(i int) []byte {
	var b [6]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(i))
	b[4] = byte(i >> 3)
	b[5] = 0xA5
	return b[:]
}

func TestLookupOrInsert(t *testing.T) {
	s := getSeenTable(0)
	defer s.release()
	const n = 5000 // crosses several slot doublings and arena growths
	for i := 0; i < n; i++ {
		k := testKey(i)
		if _, ok := s.lookupOrInsert(s.hash(k), k, visit{time: int64(i), completions: int64(2 * i)}); ok {
			t.Fatalf("state %d reported as revisit on first insert", i)
		}
	}
	if s.size() != n {
		t.Fatalf("size = %d, want %d", s.size(), n)
	}
	for i := 0; i < n; i++ {
		k := testKey(i)
		v, ok := s.lookupOrInsert(s.hash(k), k, visit{time: -1, completions: -1})
		if !ok {
			t.Fatalf("state %d not found on lookup", i)
		}
		if v.time != int64(i) || v.completions != int64(2*i) {
			t.Fatalf("state %d visit = %+v, want {%d %d}", i, v, i, 2*i)
		}
	}
	if s.size() != n {
		t.Fatalf("size after lookups = %d, want %d (lookups must not insert)", s.size(), n)
	}
	if len(s.arena) != n*len(testKey(0)) {
		t.Fatalf("arena bytes = %d, want %d", len(s.arena), n*len(testKey(0)))
	}
}

func TestVariableLengthKeys(t *testing.T) {
	s := getSeenTable(0)
	defer s.release()
	// A key that is a prefix of another must stay distinct.
	long := []byte{1, 2, 3, 4, 5}
	short := long[:3]
	if _, ok := s.lookupOrInsert(s.hash(long), long, visit{time: 1}); ok {
		t.Fatal("long key present in empty table")
	}
	if _, ok := s.lookupOrInsert(s.hash(short), short, visit{time: 2}); ok {
		t.Fatal("prefix key matched longer stored key")
	}
	if v, ok := s.lookupOrInsert(s.hash(long), long, visit{}); !ok || v.time != 1 {
		t.Fatalf("long key lookup = %+v,%v", v, ok)
	}
	if v, ok := s.lookupOrInsert(s.hash(short), short, visit{}); !ok || v.time != 2 {
		t.Fatalf("short key lookup = %+v,%v", v, ok)
	}
}

func TestResetAndReuse(t *testing.T) {
	s := getSeenTable(6)
	for i := 0; i < 2000; i++ {
		k := testKey(i)
		s.lookupOrInsert(s.hash(k), k, visit{time: int64(i)})
	}
	grownSlots, grownArena := len(s.slots), cap(s.arena)
	s.reset()
	if s.size() != 0 || len(s.arena) != 0 {
		t.Fatalf("after reset: size=%d arena bytes=%d, want 0,0", s.size(), len(s.arena))
	}
	if len(s.slots) != grownSlots || cap(s.arena) != grownArena {
		t.Fatal("reset must keep grown capacity")
	}
	// No stale hit may survive a reset.
	k := testKey(17)
	if _, ok := s.lookupOrInsert(s.hash(k), k, visit{time: 99}); ok {
		t.Fatal("stale state visible after reset")
	}
	s.release()

	// A released table comes back from the free list empty but still grown.
	r := getSeenTable(6)
	if r != s {
		t.Fatal("free list did not return the released table")
	}
	if r.size() != 0 {
		t.Fatalf("recycled table not empty: size=%d", r.size())
	}
	if len(r.slots) != grownSlots {
		t.Fatalf("recycled table lost capacity: slots=%d, want %d", len(r.slots), grownSlots)
	}
	r.release()
}

// TestSeenTableReuseSurvivesGC: a garbage collection between two
// explorations does not empty the free list, so the second exploration
// reuses the first one's table and allocates nothing for it. This is what
// makes an analysis's allocs/op deterministic.
func TestSeenTableReuseSurvivesGC(t *testing.T) {
	s := getSeenTable(6)
	s.release()
	runtime.GC()
	runtime.GC()
	if r := getSeenTable(6); r != s {
		t.Fatal("a GC emptied the free list: the released table was not reused")
	} else {
		r.release()
	}
	allocs := testing.AllocsPerRun(100, func() {
		runtime.GC()
		getSeenTable(6).release()
	})
	if allocs != 0 {
		t.Fatalf("getSeenTable after a release and a GC allocated %v times, want 0", allocs)
	}
}

// TestFreeListBounded: the free list keeps at most GOMAXPROCS tables, so
// its retained memory is bounded however many explorations ran at once.
func TestFreeListBounded(t *testing.T) {
	n := runtime.GOMAXPROCS(0) + 2
	tables := make([]*seenTable, n)
	for i := range tables {
		tables[i] = getSeenTable(6)
	}
	for _, s := range tables {
		s.release()
	}
	freeTables.Lock()
	kept := len(freeTables.list)
	freeTables.Unlock()
	if kept != runtime.GOMAXPROCS(0) {
		t.Fatalf("free list holds %d tables, want GOMAXPROCS = %d", kept, runtime.GOMAXPROCS(0))
	}
}

// TestSeenTableConcurrentReuse: explorations on several goroutines share
// the free list; no table is handed to two of them at once.
func TestSeenTableConcurrentReuse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				s := getSeenTable(6)
				for i := 0; i < 100; i++ {
					k := testKey(g<<16 | i)
					if _, ok := s.lookupOrInsert(s.hash(k), k, visit{time: int64(g)}); ok {
						t.Errorf("goroutine %d round %d: state %d present in a fresh table", g, round, i)
						return
					}
				}
				if s.size() != 100 {
					t.Errorf("goroutine %d round %d: size %d, want 100", g, round, s.size())
				}
				s.release()
			}
		}(g)
	}
	wg.Wait()
}
