// Package diag is the adaptive diagnostics layer: a fixed-size,
// allocation-free flight recorder of recent process events, diagnostic
// bundles that snapshot the ring together with kernel counters, SLO
// state and pprof profiles when something goes wrong.
//
// Like the rest of internal/obs, everything is nil-tolerant: methods on
// a nil *Recorder are no-ops, so instrumented code guards
// its sites with a single pointer check and disabled diagnostics cost
// nothing on any hot path.
package diag

import (
	"sync"
)

// Fixed per-event field capacities. Events are plain value structs with
// inline byte arrays, so recording copies bytes into preallocated ring
// slots and never allocates.
const (
	nameCap   = 48
	detailCap = 96
)

// Kind classifies a recorded event.
type Kind uint8

const (
	// KindEvent is a generic point event (request start/finish, dump
	// trigger).
	KindEvent Kind = iota
	// KindSpan is a completed activity with a duration encoded in the
	// detail text.
	KindSpan
	// KindLog is a log-record echo.
	KindLog
)

func (k Kind) String() string {
	switch k {
	case KindSpan:
		return "span"
	case KindLog:
		return "log"
	}
	return "event"
}

// event is one ring slot. Strings are stored as length-prefixed inline
// byte arrays so the ring's memory is fixed at construction.
type event struct {
	seq    uint64
	timeNS int64
	kind   Kind
	nameN  uint8
	detN   uint8
	name   [nameCap]byte
	detail [detailCap]byte
}

// Event is the exported form of one recorded event, materialized only
// when the ring is snapshotted into a bundle.
type Event struct {
	Seq    uint64 `json:"seq"`
	TimeNS int64  `json:"timeNS"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
}

// Recorder is the flight recorder: a mutex-protected fixed ring of the
// last N events. Record is allocation-free (strings are truncated into
// inline arrays); Snapshot allocates, but only runs when a bundle is
// being produced. A nil *Recorder ignores everything.
type Recorder struct {
	now func() int64 // wall nanoseconds; injectable for determinism

	mu      sync.Mutex
	ring    []event
	seq     uint64 // total events ever recorded
	dropped uint64 // events overwritten before ever being snapshotted
}

// RecorderOption configures a Recorder.
type RecorderOption func(*Recorder)

// WithNow overrides the recorder's time source with a function
// returning wall nanoseconds. Deterministic replays inject a counter.
func WithNow(now func() int64) RecorderOption {
	return func(r *Recorder) { r.now = now }
}

// NewRecorder returns a flight recorder holding the last size events
// (minimum 16, default 256 when size <= 0).
func NewRecorder(size int, opts ...RecorderOption) *Recorder {
	if size <= 0 {
		size = 256
	}
	if size < 16 {
		size = 16
	}
	r := &Recorder{ring: make([]event, size)}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Record appends one event to the ring, overwriting the oldest when
// full. Name and detail are truncated to their fixed capacities. Safe
// for concurrent use; no-op on nil.
func (r *Recorder) Record(kind Kind, name, detail string) {
	if r == nil {
		return
	}
	var t int64
	if r.now != nil {
		t = r.now()
	}
	r.mu.Lock()
	if r.now == nil {
		// Seq doubles as the time base when no clock was injected and
		// monotonic wall time is unavailable without allocation concerns;
		// the bundle still orders events correctly by seq.
		t = int64(r.seq)
	}
	slot := &r.ring[r.seq%uint64(len(r.ring))]
	if r.seq >= uint64(len(r.ring)) {
		r.dropped++
	}
	slot.seq = r.seq
	slot.timeNS = t
	slot.kind = kind
	slot.nameN = uint8(copy(slot.name[:], name))
	slot.detN = uint8(copy(slot.detail[:], detail))
	r.seq++
	r.mu.Unlock()
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.seq)
	if n > len(r.ring) {
		n = len(r.ring)
	}
	return n
}

// Total reports how many events were ever recorded (including
// overwritten ones).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Snapshot materializes the ring's current contents in chronological
// (sequence) order. Nil recorder returns nil.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	n := r.seq
	size := uint64(len(r.ring))
	count := n
	if count > size {
		count = size
	}
	out := make([]Event, 0, count)
	for i := n - count; i < n; i++ {
		s := &r.ring[i%size]
		out = append(out, Event{
			Seq:    s.seq,
			TimeNS: s.timeNS,
			Kind:   s.kind.String(),
			Name:   string(s.name[:s.nameN]),
			Detail: string(s.detail[:s.detN]),
		})
	}
	r.mu.Unlock()
	return out
}
