// Package obs is the unified telemetry layer of the flow and its
// service: spans (timed activities with attributes) recorded into
// per-scope buffers, named atomic counters and gauges, and pluggable
// sinks — a Chrome/Perfetto trace_event exporter (perfetto.go), a
// Prometheus text exposition (prom.go), and log/slog helpers with
// per-request IDs (log.go). It has no dependencies outside the standard
// library and none on the rest of this module, so every layer of the
// flow can import it.
//
// Disabled telemetry must cost nothing on the kernels' hot paths, so the
// whole API is nil-tolerant: methods on a nil *Trace, *Scope, *Counter,
// *Gauge or *Registry are no-ops, and instrumented code guards its
// sampling sites with a single pointer check. The kernel benchmarks
// (BenchmarkStateSpaceThroughputMJPEG, BenchmarkSimulateMJPEGIteration)
// run with telemetry disabled and must show zero extra allocations; the
// `make obs-smoke` target enforces that against the recorded baseline.
//
// Two time domains coexist in one trace: wall-clock spans (flow stages,
// analyses, service requests) and platform-cycle spans (the simulator's
// Gantt lanes, bridged via AddCycleSpan). The Perfetto exporter places
// them under separate processes so a designer sees, side by side, where
// the flow spends its seconds and where the platform spends its cycles.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Domain distinguishes the time base of a span.
type Domain uint8

const (
	// Wall spans are measured in nanoseconds of wall-clock time since
	// the trace was created.
	Wall Domain = iota
	// Cycles spans are measured in platform clock cycles (the simulator
	// and analysis time base).
	Cycles
)

// Attr is one key/value annotation on a span, exported into the
// Perfetto event's args.
type Attr struct {
	Key string
	Val any
}

// String, Int, Float and Bool construct span attributes.
func String(k, v string) Attr        { return Attr{Key: k, Val: v} }
func Int(k string, v int64) Attr     { return Attr{Key: k, Val: v} }
func Float(k string, v float64) Attr { return Attr{Key: k, Val: v} }
func Bool(k string, v bool) Attr     { return Attr{Key: k, Val: v} }

// spanRec is one recorded span. Dur < 0 marks a span still open; the
// exporter closes it at the end of its track and flags it "open".
type spanRec struct {
	name   string
	start  int64
	dur    int64
	domain Domain
	attrs  []Attr
}

// Scope is a span buffer bound to one track (one Perfetto thread lane).
// A scope is intended to be used from one goroutine at a time — each DSE
// worker, each flow run, each simulator bridge gets its own — so its
// mutex is uncontended on the recording path and exists only so the
// exporter can snapshot concurrently with recording.
type Scope struct {
	t     *Trace
	track string

	mu    sync.Mutex
	spans []spanRec
}

// Trace accumulates spans from any number of scopes. The zero value is
// not usable; create with New. A nil *Trace is a valid disabled trace:
// Scope returns nil and all recording is a no-op.
type Trace struct {
	now     func() int64 // wall nanoseconds since the trace epoch
	traceID string       // W3C trace-id this recording belongs to, "" if none

	mu     sync.Mutex
	scopes []*Scope
}

// Option configures a Trace.
type Option func(*Trace)

// WithNow overrides the wall-time source with a function returning
// nanoseconds since an arbitrary epoch. Tests inject a deterministic
// counter so exported timestamps are reproducible.
func WithNow(now func() int64) Option {
	return func(t *Trace) { t.now = now }
}

// WithTraceID tags the trace with the W3C trace-id of the request it
// records, so the Perfetto export and any cross-process stitching can
// correlate it with upstream and downstream traces.
func WithTraceID(id string) Option {
	return func(t *Trace) { t.traceID = id }
}

// TraceID returns the W3C trace-id the trace was tagged with ("" when
// untagged or nil).
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// New returns an empty trace whose wall clock starts now.
func New(opts ...Option) *Trace {
	t := &Trace{}
	for _, o := range opts {
		o(t)
	}
	if t.now == nil {
		epoch := time.Now()
		t.now = func() int64 { return int64(time.Since(epoch)) }
	}
	return t
}

// Scope returns a new span buffer on the named track, registering it
// with the trace. Returns nil (a valid no-op scope) on a nil trace.
func (t *Trace) Scope(track string) *Scope {
	if t == nil {
		return nil
	}
	s := &Scope{t: t, track: track}
	t.mu.Lock()
	t.scopes = append(t.scopes, s)
	t.mu.Unlock()
	return s
}

// Span is a handle on an open span; End closes it. The zero Span (from a
// nil scope) is a no-op.
type Span struct {
	s *Scope
	i int32
}

// Begin opens a wall-domain span on the scope's track.
func (s *Scope) Begin(name string, attrs ...Attr) Span {
	if s == nil {
		return Span{}
	}
	start := s.t.now()
	s.mu.Lock()
	i := int32(len(s.spans))
	s.spans = append(s.spans, spanRec{name: name, start: start, dur: -1, attrs: attrs})
	s.mu.Unlock()
	return Span{s: s, i: i}
}

// End closes the span at the current wall time.
func (sp Span) End() {
	if sp.s == nil {
		return
	}
	end := sp.s.t.now()
	sp.s.mu.Lock()
	r := &sp.s.spans[sp.i]
	if d := end - r.start; d >= 0 {
		r.dur = d
	} else {
		r.dur = 0
	}
	sp.s.mu.Unlock()
}

// SetAttrs appends attributes to the span (typically results known only
// at completion).
func (sp Span) SetAttrs(attrs ...Attr) {
	if sp.s == nil {
		return
	}
	sp.s.mu.Lock()
	r := &sp.s.spans[sp.i]
	r.attrs = append(r.attrs, attrs...)
	sp.s.mu.Unlock()
}

// Add records an already-completed wall-domain span.
func (s *Scope) Add(name string, start, dur int64, attrs ...Attr) {
	if s == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	s.mu.Lock()
	s.spans = append(s.spans, spanRec{name: name, start: start, dur: dur, attrs: attrs})
	s.mu.Unlock()
}

// AddCycleSpan records a completed span in the platform-cycle domain on
// the named track: the bridge from the simulator's Gantt lanes (and any
// other cycle-accurate timeline) into the unified trace.
func (t *Trace) AddCycleSpan(track, name string, start, end int64, attrs ...Attr) {
	if t == nil {
		return
	}
	if end < start {
		start, end = end, start
	}
	t.cycleScope(track).addCycle(name, start, end-start, attrs...)
}

// cycleScope finds or creates the scope for a cycle-domain track.
func (t *Trace) cycleScope(track string) *Scope {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.scopes {
		if s.track == track {
			return s
		}
	}
	s := &Scope{t: t, track: track}
	t.scopes = append(t.scopes, s)
	return s
}

func (s *Scope) addCycle(name string, start, dur int64, attrs ...Attr) {
	s.mu.Lock()
	s.spans = append(s.spans, spanRec{name: name, start: start, dur: dur, domain: Cycles, attrs: attrs})
	s.mu.Unlock()
}

// SpanCount reports the number of spans recorded so far (for tests and
// summaries).
func (t *Trace) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	scopes := append([]*Scope(nil), t.scopes...)
	t.mu.Unlock()
	n := 0
	for _, s := range scopes {
		s.mu.Lock()
		n += len(s.spans)
		s.mu.Unlock()
	}
	return n
}

// ---- counters and gauges ----

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; methods on a nil *Counter are no-ops.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic point-in-time value. The zero value is ready to
// use; methods on a nil *Gauge are no-ops.
type Gauge struct {
	v atomic.Int64
}

// Store sets the gauge.
func (g *Gauge) Store(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Max raises the gauge to v if v is larger.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// ---- kernel telemetry groups ----

// ExplorerStats receives the state-space kernel's counters. The
// exploration publishes sampled progress (every few thousand states) and
// final totals; it never allocates on behalf of telemetry, and a nil
// *ExplorerStats disables every publication behind one pointer check.
// Create with NewExplorerStats so the metrics carry their canonical
// names in a Registry.
type ExplorerStats struct {
	// Analyses counts completed explorations; StatesTotal accumulates
	// their distinct states.
	Analyses    *Counter
	StatesTotal *Counter
	// Deadlocks and Interrupted count terminal outcomes.
	Deadlocks   *Counter
	Interrupted *Counter
	// States, ArenaBytes and TableSlots are sampled progress of the
	// exploration currently running: distinct states recorded, bytes in
	// the packed state arena, and open-addressing slots allocated
	// (occupancy = States/TableSlots).
	States     *Gauge
	ArenaBytes *Gauge
	TableSlots *Gauge
}

// NewExplorerStats returns explorer counters registered under their
// canonical mamps_statespace_* names; a nil registry yields unregistered
// but fully functional metrics (for one-shot CLI summaries).
func NewExplorerStats(r *Registry) *ExplorerStats {
	if r == nil {
		return &ExplorerStats{
			Analyses: &Counter{}, StatesTotal: &Counter{},
			Deadlocks: &Counter{}, Interrupted: &Counter{},
			States: &Gauge{}, ArenaBytes: &Gauge{}, TableSlots: &Gauge{},
		}
	}
	return &ExplorerStats{
		Analyses:    r.Counter("mamps_statespace_analyses_total", "State-space explorations completed."),
		StatesTotal: r.Counter("mamps_statespace_states_total", "Distinct states explored, over all analyses."),
		Deadlocks:   r.Counter("mamps_statespace_deadlocks_total", "Explorations that ended in deadlock."),
		Interrupted: r.Counter("mamps_statespace_interrupted_total", "Explorations aborted by cancellation."),
		States:      r.Gauge("mamps_statespace_states", "Sampled states of the exploration in progress."),
		ArenaBytes:  r.Gauge("mamps_statespace_arena_bytes", "Sampled state-arena bytes of the exploration in progress."),
		TableSlots:  r.Gauge("mamps_statespace_table_slots", "Sampled open-addressing slots of the exploration in progress."),
	}
}

// SimStats receives the platform simulator's counters, published once
// per completed (or aborted) run from locals accumulated in the event
// loop — the hot loop itself never touches an atomic. Create with
// NewSimStats.
type SimStats struct {
	// Runs counts simulations; Steps the proc steps executed; Rounds the
	// fixpoint passes over flagged procs.
	Runs   *Counter
	Steps  *Counter
	Rounds *Counter
	// MaxWakeHeap is the deepest the future-wake heap grew.
	MaxWakeHeap *Gauge
	// BusyCycles and StallCycles accumulate, over all tiles, the cycles
	// spent executing/serializing vs. blocked waiting.
	BusyCycles  *Counter
	StallCycles *Counter
	// FaultEvents counts injected faults (jitter draws, word stalls,
	// fail-stops) over all runs.
	FaultEvents *Counter
}

// NewSimStats returns simulator counters registered under their
// canonical mamps_sim_* names; a nil registry yields unregistered but
// fully functional metrics.
func NewSimStats(r *Registry) *SimStats {
	if r == nil {
		return &SimStats{
			Runs: &Counter{}, Steps: &Counter{}, Rounds: &Counter{},
			MaxWakeHeap: &Gauge{}, BusyCycles: &Counter{}, StallCycles: &Counter{},
			FaultEvents: &Counter{},
		}
	}
	return &SimStats{
		Runs:        r.Counter("mamps_sim_runs_total", "Platform simulations completed or aborted."),
		Steps:       r.Counter("mamps_sim_steps_total", "Proc steps executed by the simulator event loop."),
		Rounds:      r.Counter("mamps_sim_rounds_total", "Fixpoint passes over flagged procs."),
		MaxWakeHeap: r.Gauge("mamps_sim_wake_heap_max", "Deepest the future-wake heap grew."),
		BusyCycles:  r.Counter("mamps_sim_tile_busy_cycles_total", "Tile cycles spent executing and serializing."),
		StallCycles: r.Counter("mamps_sim_tile_stall_cycles_total", "Tile cycles spent blocked on tokens or space."),
		FaultEvents: r.Counter("mamps_sim_fault_events_total", "Injected fault events (jitter, word stalls, fail-stops)."),
	}
}

// AddTo adds this group's counter values into dst and raises dst's
// wake-heap high-water mark. Nil source or destination is a no-op.
func (s *SimStats) AddTo(dst *SimStats) {
	if s == nil || dst == nil {
		return
	}
	dst.Runs.Add(s.Runs.Value())
	dst.Steps.Add(s.Steps.Value())
	dst.Rounds.Add(s.Rounds.Value())
	dst.MaxWakeHeap.Max(s.MaxWakeHeap.Value())
	dst.BusyCycles.Add(s.BusyCycles.Value())
	dst.StallCycles.Add(s.StallCycles.Value())
	dst.FaultEvents.Add(s.FaultEvents.Value())
}

// SolverStats receives the branch-and-bound mapping solver's counters:
// how much of the binding tree was expanded, how much the admissible
// throughput bound pruned away, and how often the incumbent improved.
// The pruning ratio Pruned/(Expanded+Pruned) is the solver's figure of
// merit against exhaustive enumeration. Create with NewSolverStats.
type SolverStats struct {
	// NodesExpanded counts search-tree nodes whose children were
	// generated; NodesPruned counts subtrees cut by the admissible
	// throughput bound.
	NodesExpanded *Counter
	NodesPruned   *Counter
	// Incumbents counts improvements of the best verified binding;
	// Verifications counts the full binding-aware analyses run on
	// candidate leaves.
	Incumbents    *Counter
	Verifications *Counter
}

// NewSolverStats returns solver counters registered under their
// canonical mamps_solver_* names; a nil registry yields unregistered
// but fully functional metrics.
func NewSolverStats(r *Registry) *SolverStats {
	if r == nil {
		return &SolverStats{
			NodesExpanded: &Counter{}, NodesPruned: &Counter{},
			Incumbents: &Counter{}, Verifications: &Counter{},
		}
	}
	return &SolverStats{
		NodesExpanded: r.Counter("mamps_solver_nodes_expanded_total", "Branch-and-bound nodes expanded."),
		NodesPruned:   r.Counter("mamps_solver_nodes_pruned_total", "Branch-and-bound subtrees pruned by the admissible bound."),
		Incumbents:    r.Counter("mamps_solver_incumbents_total", "Improvements of the best verified binding."),
		Verifications: r.Counter("mamps_solver_verifications_total", "Binding-aware throughput analyses of candidate leaves."),
	}
}

// AddTo adds this group's counter values into dst. Nil source or
// destination is a no-op.
func (s *SolverStats) AddTo(dst *SolverStats) {
	if s == nil || dst == nil {
		return
	}
	dst.NodesExpanded.Add(s.NodesExpanded.Value())
	dst.NodesPruned.Add(s.NodesPruned.Value())
	dst.Incumbents.Add(s.Incumbents.Value())
	dst.Verifications.Add(s.Verifications.Value())
}

// WarmStats receives the analysis memo's counters: how often a prior
// exploration was reused versus analyzed cold. Every lookup counts as
// exactly one of Exact or Misses. Create with NewWarmStats.
type WarmStats struct {
	// Exact counts full-result reuse (identical graph, schedules and
	// reference actor).
	Exact *Counter
	// Misses counts lookups that ran cold; Bailouts counts the misses
	// where a cached exploration matched but reuse was refused because
	// soundness could not be proven (state budget, deadlock tile labels).
	Misses   *Counter
	Bailouts *Counter
}

// NewWarmStats returns warm-start counters registered under their
// canonical mamps_warmstart_* names; a nil registry yields unregistered
// but fully functional metrics.
func NewWarmStats(r *Registry) *WarmStats {
	if r == nil {
		return &WarmStats{
			Exact: &Counter{}, Misses: &Counter{}, Bailouts: &Counter{},
		}
	}
	return &WarmStats{
		Exact:    r.Counter("mamps_warmstart_exact_hits_total", "Analyses served verbatim from a prior exploration."),
		Misses:   r.Counter("mamps_warmstart_misses_total", "Analyses run cold."),
		Bailouts: r.Counter("mamps_warmstart_bailouts_total", "Cold analyses whose reuse was refused because soundness could not be proven."),
	}
}

// Set bundles the telemetry destinations of one run: a span trace and
// the kernel counter groups. Any field may be nil to disable that part;
// a nil *Set disables everything behind a single check.
type Set struct {
	Trace    *Trace
	Explorer *ExplorerStats
	Sim      *SimStats
	Solver   *SolverStats
	Warm     *WarmStats
	// Record, when set, receives a recorded run's explorer counters as a
	// cold run on a private, empty analysis memo would count them, while
	// Explorer counts the explorations actually run (see cache.Analyzer).
	Record *ExplorerStats
}

// TraceOf returns the set's trace, tolerating a nil set.
func (s *Set) TraceOf() *Trace {
	if s == nil {
		return nil
	}
	return s.Trace
}

// ExplorerOf returns the set's explorer stats, tolerating a nil set.
func (s *Set) ExplorerOf() *ExplorerStats {
	if s == nil {
		return nil
	}
	return s.Explorer
}

// SimOf returns the set's simulator stats, tolerating a nil set.
func (s *Set) SimOf() *SimStats {
	if s == nil {
		return nil
	}
	return s.Sim
}

// SolverOf returns the set's solver stats, tolerating a nil set.
func (s *Set) SolverOf() *SolverStats {
	if s == nil {
		return nil
	}
	return s.Solver
}

// WarmOf returns the set's warm-start stats, tolerating a nil set.
func (s *Set) WarmOf() *WarmStats {
	if s == nil {
		return nil
	}
	return s.Warm
}

// RecordOf returns the set's recorded-run explorer stats, tolerating a
// nil set.
func (s *Set) RecordOf() *ExplorerStats {
	if s == nil {
		return nil
	}
	return s.Record
}
