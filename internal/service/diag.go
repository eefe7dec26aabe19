package service

// Adaptive diagnostics surface of the service: a flight recorder keeps
// the most recent request events in a fixed ring, and a dump —
// triggered by a handler panic, a structured deadlock (422), SIGQUIT
// (via DumpDiagnostics from mamps-serve) or POST /debug/dump — captures
// the ring together with kernel counters, the SLO board state and
// goroutine/heap profiles (plus a CPU profile, except for a deadlock)
// into a diagnostic bundle. When a run
// registry is attached the bundle is appended as a kind "diag" record:
// the manifest and every profile land in the content-addressed blob
// store, deduplicated and covered by the ledger chain, so "what was the
// process doing when it broke" is retrievable and verifiable later.

import (
	"context"
	"net/http"
	"runtime"

	"mamps/internal/obs"
	"mamps/internal/obs/diag"
	"mamps/internal/runlog"
)

// gcPauseBuckets span sub-microsecond young collections up to
// second-long stop-the-world stalls.
var gcPauseBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1,
}

// diagCounters snapshots the service-level counters a bundle carries.
func (s *Server) diagCounters() map[string]int64 {
	st := s.Stats()
	return map[string]int64{
		"workersBusy":  st.BusyWork,
		"queueDepth":   st.QueueDepth,
		"cacheEntries": int64(st.Cache.Entries),
		"cacheHits":    int64(st.Cache.Hits),
		"cacheMisses":  int64(st.Cache.Misses),
	}
}

// dumpDiagnostics captures a diagnostic bundle and, when a run registry
// is attached, appends it as a kind "diag" record whose manifest and
// profiles are content-addressed blobs. Returns the stored record ID
// ("" when not persisted) and the bundle. Never fails: diagnostics must
// not take the serving path down with them.
func (s *Server) dumpDiagnostics(ctx context.Context, reason, deadlock string) (string, *diag.Bundle) {
	tc := obs.TraceContextFrom(ctx)
	// A deadlock is a wait, not a CPU hot spot, and its 422 waits for
	// the dump, so its bundle skips the CPU profile.
	cpu := s.dumpCPU
	if reason == "deadlock" {
		cpu = 0
	}
	bundle, arts := diag.Capture(diag.CaptureOptions{
		Reason:     reason,
		NowNS:      s.clk.Now().UnixNano(),
		TraceID:    tc.TraceID,
		SpanID:     tc.SpanID,
		RequestID:  obs.RequestID(ctx),
		Recorder:   s.recorder,
		Counters:   s.diagCounters(),
		SLO:        s.slos.States(),
		Deadlock:   deadlock,
		Profiles:   true,
		CPUProfile: cpu,
	})
	data, err := bundle.Marshal()
	if err != nil {
		s.log.Error("diagnostic bundle marshal failed", "reason", reason, "err", err)
		return "", bundle
	}
	s.log.Warn("diagnostic dump captured",
		"reason", reason, "events", len(bundle.Events), "profiles", len(bundle.Profiles))
	if s.runlog == nil {
		return "", bundle
	}
	rec := runlog.Record{
		Kind:        "diag",
		App:         "service",
		Outcome:     reason,
		BaselineKey: "diag/" + reason,
		Profiles:    bundle.Profiles,
	}
	artifacts := make([]runlog.Artifact, 0, len(arts)+1)
	artifacts = append(artifacts, runlog.Artifact{Name: "diag.json", Data: data})
	for _, a := range arts {
		artifacts = append(artifacts, runlog.Artifact{Name: a.Name, Data: a.Data})
	}
	stored, ok := s.appendRun(ctx, rec, artifacts)
	if !ok {
		return "", bundle
	}
	return stored.ID, bundle
}

// DumpDiagnostics triggers a manual diagnostic dump outside any request
// (the SIGQUIT hook of mamps-serve). Returns the stored record ID, or
// "" when no run registry is attached.
func (s *Server) DumpDiagnostics(reason string) string {
	if reason == "" {
		reason = "manual"
	}
	id, _ := s.dumpDiagnostics(context.Background(), reason, "")
	return id
}

// handleDebugDump is POST /debug/dump: an on-demand diagnostic dump.
func (s *Server) handleDebugDump(w http.ResponseWriter, r *http.Request) {
	id, bundle := s.dumpDiagnostics(r.Context(), "manual", "")
	s.writeJSON(w, http.StatusOK, struct {
		Record   string            `json:"record,omitempty"`
		Reason   string            `json:"reason"`
		Events   int               `json:"events"`
		Profiles map[string]string `json:"profiles,omitempty"`
	}{id, bundle.Reason, len(bundle.Events), bundle.Profiles})
}

// observeGCPauses folds the pauses of collections since the last scrape
// into the GC-pause histogram. MemStats keeps the most recent 256
// pauses in a circular buffer; a CAS keeps concurrent scrapes from
// double-counting a window.
func (s *Server) observeGCPauses(ms *runtime.MemStats) {
	last := s.lastNumGC.Load()
	n := ms.NumGC
	if n <= last || !s.lastNumGC.CompareAndSwap(last, n) {
		return
	}
	span := n - last
	if span > 256 {
		span = 256
	}
	for i := n - span; i < n; i++ {
		s.gcPause.Observe(float64(ms.PauseNs[i%256]) / 1e9)
	}
}
