package diag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mamps/internal/obs/slo"
)

// TestRecorderRing pins the overwrite semantics: a full ring keeps
// exactly the newest size events in sequence order, counts what it
// dropped, and truncates oversized fields instead of allocating.
func TestRecorderRing(t *testing.T) {
	var tick int64
	r := NewRecorder(16, WithNow(func() int64 { tick++; return tick }))
	for i := 0; i < 40; i++ {
		r.Record(KindEvent, fmt.Sprintf("e%d", i), "d")
	}
	if r.Len() != 16 {
		t.Fatalf("Len = %d, want 16", r.Len())
	}
	if r.Total() != 40 {
		t.Fatalf("Total = %d, want 40", r.Total())
	}
	evs := r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("snapshot %d events, want 16", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(24 + i) // events 24..39 survive
		if e.Seq != wantSeq {
			t.Fatalf("event %d: seq %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Name != fmt.Sprintf("e%d", wantSeq) {
			t.Fatalf("event %d: name %q, want e%d", i, e.Name, wantSeq)
		}
		if i > 0 && evs[i].TimeNS <= evs[i-1].TimeNS {
			t.Fatalf("times not increasing at %d: %d then %d", i, evs[i-1].TimeNS, evs[i].TimeNS)
		}
	}

	long := strings.Repeat("n", 200)
	r.Record(KindSpan, long, long)
	last := r.Snapshot()[15]
	if len(last.Name) != nameCap || len(last.Detail) != detailCap {
		t.Fatalf("truncation: name %d detail %d, want %d/%d", len(last.Name), len(last.Detail), nameCap, detailCap)
	}
	if last.Kind != "span" {
		t.Fatalf("kind = %q, want span", last.Kind)
	}
}

// TestRecorderNil checks the whole nil-tolerant surface.
func TestRecorderNil(t *testing.T) {
	var r *Recorder
	r.Record(KindLog, "x", "y")
	if r.Len() != 0 || r.Total() != 0 || r.Snapshot() != nil {
		t.Fatal("nil recorder not inert")
	}
}

// TestRecorderStorm hammers the ring from concurrent writers and
// snapshotters; run under -race this is the data-race gate, and the
// final totals must still balance.
func TestRecorderStorm(t *testing.T) {
	r := NewRecorder(64)
	const writers, per = 8, 500
	var wg sync.WaitGroup
	wg.Add(writers + 2)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(KindEvent, "storm", "w")
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				evs := r.Snapshot()
				for j := 1; j < len(evs); j++ {
					if evs[j].Seq != evs[j-1].Seq+1 {
						t.Errorf("snapshot seq gap: %d then %d", evs[j-1].Seq, evs[j].Seq)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if r.Total() != writers*per {
		t.Fatalf("Total = %d, want %d", r.Total(), writers*per)
	}
	if r.Len() != 64 {
		t.Fatalf("Len = %d, want 64", r.Len())
	}
}

// TestRecordAllocFree proves Record never allocates — the property that
// lets the service record on every request without disturbing the
// obs-smoke allocation gates.
func TestRecordAllocFree(t *testing.T) {
	r := NewRecorder(32)
	allocs := testing.AllocsPerRun(200, func() {
		r.Record(KindEvent, "http/analyze", "req-000042 status=200")
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v times per call, want 0", allocs)
	}
}

// TestBundleDeterministic captures the same deterministic inputs twice
// (no profiles, counter clock) and requires byte-identical manifests.
func TestBundleDeterministic(t *testing.T) {
	capture := func() []byte {
		var tick int64
		r := NewRecorder(16, WithNow(func() int64 { tick++; return tick }))
		r.Record(KindEvent, "a", "1")
		r.Record(KindEvent, "b", "2")
		b, arts := Capture(CaptureOptions{
			Reason:   "test",
			NowNS:    99,
			Recorder: r,
			Counters: map[string]int64{"x": 1, "y": 2},
			SLO:      []slo.State{{Name: "latency", Target: 0.99}},
			Deadlock: "report",
		})
		if len(arts) != 0 {
			t.Fatalf("deterministic capture produced %d artifacts, want 0", len(arts))
		}
		data, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := capture(), capture()
	if !bytes.Equal(a, b) {
		t.Fatalf("deterministic bundles differ:\n%s\nvs\n%s", a, b)
	}
	var back Bundle
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatal(err)
	}
	if back.Reason != "test" || back.Deadlock != "report" || len(back.Events) != 2 {
		t.Fatalf("round-trip lost content: %+v", back)
	}
}

// TestBundleProfiles checks a profile-bearing capture: goroutine and
// heap artifacts exist, and their manifest digests match the bytes.
func TestBundleProfiles(t *testing.T) {
	b, arts := Capture(CaptureOptions{Reason: "manual", Profiles: true})
	if len(arts) < 2 {
		t.Fatalf("got %d profile artifacts, want >= 2", len(arts))
	}
	if b.Goroutines <= 0 {
		t.Fatalf("goroutines = %d, want > 0", b.Goroutines)
	}
	for _, a := range arts {
		if len(a.Data) == 0 {
			t.Fatalf("profile %s empty", a.Name)
		}
		if got := b.Profiles[a.Name]; got != DigestOf(a.Data) {
			t.Fatalf("profile %s digest %s != bytes digest %s", a.Name, got, DigestOf(a.Data))
		}
	}
	b.StripVolatile()
	if b.Profiles != nil || b.Goroutines != 0 || b.TimeNS != 0 {
		t.Fatalf("StripVolatile left volatile fields: %+v", b)
	}
}
