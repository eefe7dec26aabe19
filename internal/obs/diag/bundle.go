package diag

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"mamps/internal/obs/slo"
)

// Bundle is the manifest of one diagnostic dump: the flight-recorder
// ring at the moment of capture, the process's kernel counters, the SLO
// board state, the deadlock report when one triggered the dump, and the
// sha256 digests of the profile artifacts captured alongside. The
// manifest is rendered with encoding/json (sorted map keys, fixed field
// order), so a capture of deterministic inputs is byte-identical.
//
// Profile digests use the same sha256-hex form as the content-addressed
// blob store, so manifest entries equal the blob names the artifacts
// are stored under.
type Bundle struct {
	FormatVersion int     `json:"formatVersion"`
	Reason        string  `json:"reason"`
	TimeNS        int64   `json:"timeNS"`
	TraceID       string  `json:"traceID,omitempty"`
	SpanID        string  `json:"spanID,omitempty"`
	RequestID     string  `json:"requestID,omitempty"`
	Goroutines    int     `json:"goroutines,omitempty"`
	EventsDropped uint64  `json:"eventsDropped,omitempty"`
	Events        []Event `json:"events"`

	// Counters carries the process's kernel counter/gauge values at
	// capture time (explorer, simulator, solver, warm-start, service).
	Counters map[string]int64 `json:"counters,omitempty"`
	// SLO is the burn-rate board snapshot.
	SLO []slo.State `json:"slo,omitempty"`
	// Deadlock is the structured deadlock report, when one triggered
	// the dump.
	Deadlock string `json:"deadlock,omitempty"`
	// Profiles maps profile artifact names ("profile/cpu", ...) to the
	// sha256 digest of their bytes.
	Profiles map[string]string `json:"profiles,omitempty"`
}

// Artifact is one captured profile, stored next to the manifest (in the
// service: as a content-addressed blob named by its digest).
type Artifact struct {
	Name string
	Data []byte
}

// Profile artifact names.
const (
	ProfileCPU       = "profile/cpu"
	ProfileHeap      = "profile/heap"
	ProfileGoroutine = "profile/goroutine"
)

// CaptureOptions parameterize one dump.
type CaptureOptions struct {
	// Reason labels the trigger: "panic", "deadlock", "sigquit",
	// "manual", ...
	Reason string
	// NowNS stamps the bundle; pass the process clock's reading so
	// deterministic replays produce identical manifests.
	NowNS int64
	// TraceID/SpanID/RequestID tie the dump to the request being served
	// when it triggered, if any.
	TraceID, SpanID, RequestID string
	// Recorder is the flight recorder to snapshot (nil: no events).
	Recorder *Recorder
	// Counters snapshots the process's kernel counters.
	Counters map[string]int64
	// SLO snapshots the burn-rate board.
	SLO []slo.State
	// Deadlock carries the structured deadlock report, when one
	// triggered the dump.
	Deadlock string
	// Profiles enables goroutine/heap profile capture (and the
	// goroutine count). Leave false for deterministic bundles: profile
	// bytes are inherently nondeterministic.
	Profiles bool
	// CPUProfile > 0 additionally captures a CPU profile of that
	// duration (blocking the capture; only honored with Profiles).
	CPUProfile time.Duration
}

// Capture builds a bundle and its profile artifacts. Never fails: a
// profile that cannot be captured (e.g. a CPU profile already running)
// is skipped.
func Capture(opt CaptureOptions) (*Bundle, []Artifact) {
	b := &Bundle{
		FormatVersion: 1,
		Reason:        opt.Reason,
		TimeNS:        opt.NowNS,
		TraceID:       opt.TraceID,
		SpanID:        opt.SpanID,
		RequestID:     opt.RequestID,
		Events:        opt.Recorder.Snapshot(),
		Counters:      opt.Counters,
		SLO:           opt.SLO,
		Deadlock:      opt.Deadlock,
	}
	if b.Events == nil {
		b.Events = []Event{}
	}
	if opt.Recorder != nil {
		opt.Recorder.mu.Lock()
		b.EventsDropped = opt.Recorder.dropped
		opt.Recorder.mu.Unlock()
	}

	var arts []Artifact
	if opt.Profiles {
		b.Goroutines = runtime.NumGoroutine()
		b.Profiles = map[string]string{}
		add := func(name string, data []byte) {
			arts = append(arts, Artifact{Name: name, Data: data})
			b.Profiles[name] = DigestOf(data)
		}
		if p := pprof.Lookup("goroutine"); p != nil {
			var buf bytes.Buffer
			if err := p.WriteTo(&buf, 0); err == nil {
				add(ProfileGoroutine, buf.Bytes())
			}
		}
		if p := pprof.Lookup("heap"); p != nil {
			var buf bytes.Buffer
			if err := p.WriteTo(&buf, 0); err == nil {
				add(ProfileHeap, buf.Bytes())
			}
		}
		if opt.CPUProfile > 0 {
			if data, err := captureCPU(opt.CPUProfile); err == nil {
				add(ProfileCPU, data)
			}
		}
		if len(b.Profiles) == 0 {
			b.Profiles = nil
		}
	}
	return b, arts
}

// captureCPU records a CPU profile for d. Fails (harmlessly) when a CPU
// profile is already in progress.
func captureCPU(d time.Duration) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	time.Sleep(d)
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// Marshal renders the manifest as indented JSON with a trailing
// newline: the byte form stored as the bundle artifact and compared by
// the determinism tests.
func (b *Bundle) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("diag: marshal bundle: %w", err)
	}
	return append(data, '\n'), nil
}

// StripVolatile clears the fields that legitimately differ between two
// replays of the same scenario — profile digests, goroutine counts and
// the capture timestamp — leaving the deterministic core (events,
// counters, deadlock report, reason) for byte-comparison.
func (b *Bundle) StripVolatile() {
	b.TimeNS = 0
	b.Goroutines = 0
	b.Profiles = nil
	b.TraceID = ""
	b.SpanID = ""
	b.RequestID = ""
}

// DigestOf returns the sha256 hex digest of data — the same form the
// content-addressed blob store names blobs with.
func DigestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
