// Package runlog is the persistent run registry of the mapping flow: a
// crash-safe, append-only record of every completed flow/DSE/analysis
// run, durable across process restarts and queryable after the fact.
//
// One run becomes one Record — identity (ID, sequence number, timestamp
// from an injectable clock), the canonical reorder-invariant graph key of
// the analyzed model, a summary of the flow configuration (tiles,
// interconnect, iterations, fault scenario, throughput constraint), the
// three Figure 6 throughput numbers (worst-case bound, measured,
// expected), per-stage wall times (Table 1), the degraded-mode outcome,
// and the full kernel-counter set from internal/obs. Records are stored
// as an append-only JSONL index (index.jsonl) plus an optional per-run
// artifact directory (runs/<id>/ holding e.g. the Perfetto trace or a
// deadlock report).
//
// Durability contract: the index is recovered on Open by scanning line by
// line; a truncated or garbled final record — the signature of a crash
// mid-append — is dropped and the file truncated back to the last intact
// line, so a registry always reopens. Retention is bounded by count
// (MaxRecords) and age (MaxAge against the injected clock); GC rewrites
// the index atomically (temp file + rename) and removes the artifact
// directories of expired runs, including orphans left by a crash between
// artifact write and index append.
//
// On top of the history sits the regression detector: a baseline freezes
// one reference record per baseline key (the canonical graph key plus a
// configuration fingerprint, or an explicit corpus entry name). Every
// Append compares the incoming record against the baseline for its key;
// any drift in a deterministic quantity — throughput bound, measured
// throughput, measured cycles, states explored, simulator steps — tags
// the stored record with the reasons and increments the
// mamps_regressions_total counter.
package runlog

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"mamps/internal/clock"
	"mamps/internal/faults"
	"mamps/internal/obs"
	"mamps/internal/runlog/blobs"
	"mamps/internal/runlog/ledger"
)

// Record is one completed (or failed) run.
type Record struct {
	// ID identifies the run ("r000042-1a2b3c4d"); Seq is its position in
	// the append order. Both are assigned by Append.
	ID  string `json:"id"`
	Seq int64  `json:"seq"`
	// Time is the completion time, read from the registry's clock.
	Time time.Time `json:"time"`
	// Kind is the run type: "flow", "dse" or "analysis".
	Kind string `json:"kind"`
	// App names the application model; GraphKey is its canonical
	// reorder-invariant content key (cache.GraphKey).
	App      string `json:"app"`
	GraphKey string `json:"graphKey"`
	// Corpus names the regression-corpus entry this run replays, when it
	// is one ("" for service traffic). Corpus runs are baseline-matched by
	// name, so a perturbation that changes the graph key is itself drift.
	Corpus string `json:"corpus,omitempty"`
	// BaselineKey is the key this run is baseline-matched under. Empty on
	// Append defaults to "graph/<GraphKey>" (or "corpus/<Corpus>").
	BaselineKey string `json:"baselineKey,omitempty"`
	// Outcome is "ok", "degraded", "deadlock" or "error"; Error carries
	// the failure text for the last two.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`

	// Config summarizes the request that produced the run.
	Config ConfigSummary `json:"config"`

	// Bound is the guaranteed worst-case throughput (iterations/cycle);
	// Measured and Expected the executed and re-analyzed throughputs
	// (zero when not executed). Cycles is the total simulated time.
	Bound    float64 `json:"boundThroughput"`
	Measured float64 `json:"measuredThroughput,omitempty"`
	Expected float64 `json:"expectedThroughput,omitempty"`
	Cycles   int64   `json:"cycles,omitempty"`

	// EnergyPJ is the energy-model estimate per graph iteration at the
	// guaranteed throughput, AvgWatts the corresponding average power
	// (zero when no energy fold ran).
	EnergyPJ float64 `json:"energyPJ,omitempty"`
	AvgWatts float64 `json:"avgWatts,omitempty"`

	// Steps are the Table 1 per-stage wall times.
	Steps []StageTime `json:"steps,omitempty"`

	// Degraded summarizes the degraded-mode recovery after an injected
	// tile fail-stop.
	Degraded *DegradedSummary `json:"degraded,omitempty"`

	// Counters is the run's kernel-counter set (internal/obs groups).
	Counters Counters `json:"counters"`

	// Artifacts names the files stored under the run's artifact
	// directory (e.g. "trace.json", "deadlock.txt").
	Artifacts []string `json:"artifacts,omitempty"`

	// TraceRetained is read-only: records written while the registry
	// had a tail-based trace retention policy carry the reason it kept
	// their trace ("slow", "sample", ...). Nothing sets it now; the
	// field stays so such records still re-marshal to the bytes their
	// chain hash covers.
	TraceRetained string `json:"traceRetained,omitempty"`

	// Regression is attached by Append when a baseline exists for the
	// run's key; Regression.Regressed marks any drift from it.
	Regression *Regression `json:"regression,omitempty"`

	// ArtifactBlobs maps artifact names to the SHA-256 digests under
	// which their bytes live in the content-addressed blob store
	// (blobs/<aa>/<digest>). Records predating the blob store keep their
	// artifacts under runs/<id>/ and have no entries here.
	ArtifactBlobs BlobRefs `json:"artifactBlobs,omitempty"`

	// TraceID and SpanID are the W3C trace-context identifiers of the
	// request that produced the run, when it arrived (or was issued) with
	// a traceparent — the hook that stitches a run to its cross-process
	// distributed trace.
	TraceID string `json:"traceID,omitempty"`
	SpanID  string `json:"spanID,omitempty"`

	// Profiles maps pprof profile names ("profile/cpu", "profile/heap")
	// to blob-store digests, attached by diagnostic bundle records to
	// their captured profiles (records written while a profile sampler
	// existed may carry them too). The referenced blobs are GC-pinned
	// and fsck-checked like artifact blobs.
	Profiles map[string]string `json:"profiles,omitempty"`

	// Format versions the record's wire schema: 0 is the pre-ledger
	// format; FormatChained records carry the chain fields below and
	// blob-addressed artifacts.
	Format int `json:"format,omitempty"`

	// PrevHash is the chain hash of the preceding record (the ledger
	// genesis hash for the first record); RecordHash is this record's
	// chain hash, Link(PrevHash, contentHash) where contentHash covers
	// the record's canonical JSON with both chain fields cleared.
	// Assigned by Append; empty on legacy records until fsck (or GC)
	// adopts them into the chain.
	PrevHash   string `json:"prevHash,omitempty"`
	RecordHash string `json:"recordHash,omitempty"`
}

// BlobRefs maps names to blob digests as a slice sorted by name: a
// retained record holds it for far less memory than a map, and it
// marshals to the JSON object a map[string]string would, so the ledger
// hashes the same bytes.
type BlobRefs []BlobRef

// BlobRef is one name and the digest of its blob.
type BlobRef struct {
	Name, Digest string
}

// Get returns the digest stored under name.
func (b BlobRefs) Get(name string) (string, bool) {
	for _, r := range b {
		if r.Name == name {
			return r.Digest, true
		}
	}
	return "", false
}

// set stores digest under name, replacing an earlier entry, and keeps
// the refs sorted.
func (b *BlobRefs) set(name, digest string) {
	i, found := slices.BinarySearchFunc(*b, name, func(r BlobRef, name string) int { return strings.Compare(r.Name, name) })
	if found {
		(*b)[i].Digest = digest
		return
	}
	*b = slices.Insert(*b, i, BlobRef{Name: name, Digest: digest})
}

// MarshalJSON writes the refs as a JSON object keyed by name.
func (b BlobRefs) MarshalJSON() ([]byte, error) {
	if b == nil {
		return []byte("null"), nil
	}
	out := []byte{'{'}
	for i, r := range b {
		if i > 0 {
			out = append(out, ',')
		}
		k, _ := json.Marshal(r.Name)
		v, _ := json.Marshal(r.Digest)
		out = append(append(append(out, k...), ':'), v...)
	}
	return append(out, '}'), nil
}

// UnmarshalJSON reads a JSON object keyed by name; of duplicate names
// the last wins, as in a map.
func (b *BlobRefs) UnmarshalJSON(data []byte) error {
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*b = nil
		return nil
	}
	refs := make(BlobRefs, 0, len(m))
	for name, digest := range m {
		refs = append(refs, BlobRef{Name: name, Digest: digest})
	}
	slices.SortFunc(refs, func(x, y BlobRef) int { return strings.Compare(x.Name, y.Name) })
	*b = refs
	return nil
}

// FormatChained marks records whose index line participates in the
// Merkle-chained ledger (PR 9). Legacy records are Format 0.
const FormatChained = 2

// contentHash computes the record hash the chain links over: SHA-256 of
// the record's canonical JSON with the chain fields themselves cleared
// (they describe the chain, not the content). Every other field —
// including Format — is covered, so any single flipped byte of a stored
// line changes the hash.
func contentHash(rec *Record) (ledger.Hash, error) {
	c := *rec
	c.PrevHash, c.RecordHash = "", ""
	b, err := json.Marshal(&c)
	if err != nil {
		return ledger.Hash{}, fmt.Errorf("runlog: hashing record: %w", err)
	}
	return ledger.HashBytes(b), nil
}

// idPattern is the strict shape of run IDs assigned by Append:
// "r<seq, >=6 digits>-<key>", key a sanitized graph-key prefix (shortKey
// maps everything outside [0-9a-z] to '-') or "nokey". Service handlers
// and the CLI validate untrusted IDs against it before any filesystem
// path is derived from them.
var idPattern = regexp.MustCompile(`^r[0-9]{6,19}-[0-9a-z-]{1,64}$`)

// ValidID reports whether id is a well-formed run ID. Anything else —
// path separators, "..", empty strings, overlong junk — is rejected at
// the boundary, so an untrusted ID can never traverse outside the
// registry directory.
func ValidID(id string) bool {
	return len(id) <= 90 && idPattern.MatchString(id)
}

// ConfigSummary is the part of a run's configuration worth keeping: what
// a reader needs to interpret (and reproduce) the numbers.
type ConfigSummary struct {
	Tiles            int          `json:"tiles,omitempty"`
	Interconnect     string       `json:"interconnect,omitempty"`
	Iterations       int          `json:"iterations,omitempty"`
	RefActor         string       `json:"refActor,omitempty"`
	UseCA            bool         `json:"useCA,omitempty"`
	Faults           *faults.Spec `json:"faults,omitempty"`
	TargetThroughput float64      `json:"targetThroughput,omitempty"`
	// AnalyzeWorkers is a read-only legacy field: records written before
	// the sharded state-space explorer was removed may carry the
	// parallelism they were requested with. Nothing sets it any more; it
	// stays so those records still re-marshal byte-identically under
	// fsck. It never participates in baseline comparison keys.
	AnalyzeWorkers int `json:"analyzeWorkers,omitempty"`
}

// StageTime is one Table 1 design-flow stage wall time.
type StageTime struct {
	Name      string  `json:"name"`
	Automated bool    `json:"automated"`
	Micros    float64 `json:"micros"`
}

// DegradedSummary is the run's degraded-mode outcome.
type DegradedSummary struct {
	FailedTile     string  `json:"failedTile"`
	FailCycle      int64   `json:"failCycle"`
	Bound          float64 `json:"boundThroughput"`
	Measured       float64 `json:"measuredThroughput"`
	ConstraintMet  bool    `json:"constraintMet"`
	MigratedActors int     `json:"migratedActors"`
	MigrationBytes int64   `json:"migrationBytes"`
}

// Counters is the kernel-counter set of one run, snapshot from the
// internal/obs metric groups the run was instrumented with.
type Counters struct {
	Analyses       int64 `json:"analyses,omitempty"`
	StatesExplored int64 `json:"statesExplored,omitempty"`
	Deadlocks      int64 `json:"deadlocks,omitempty"`
	Interrupted    int64 `json:"interrupted,omitempty"`
	SimRuns        int64 `json:"simRuns,omitempty"`
	SimSteps       int64 `json:"simSteps,omitempty"`
	SimRounds      int64 `json:"simRounds,omitempty"`
	BusyCycles     int64 `json:"busyCycles,omitempty"`
	StallCycles    int64 `json:"stallCycles,omitempty"`
	FaultEvents    int64 `json:"faultEvents,omitempty"`

	SolverNodes      int64 `json:"solverNodes,omitempty"`
	SolverPruned     int64 `json:"solverPruned,omitempty"`
	SolverIncumbents int64 `json:"solverIncumbents,omitempty"`

	// Warm-start tier counts. Deterministic for a given request
	// sequence: the regression gate pins them so a silently changed
	// reuse decision — the precursor of an unsound reuse — fails with an
	// explicit reason.
	// WarmScaled and WarmHint are read-only: records from before the
	// scaled-WCET and hint tiers' removal carry them (analyses then
	// transformed from, or pre-sized by, a structural match), and the
	// ledger hashed their exact bytes, field order included.
	WarmExact    int64 `json:"warmExact,omitempty"`
	WarmScaled   int64 `json:"warmScaled,omitempty"`
	WarmHint     int64 `json:"warmHint,omitempty"`
	WarmMisses   int64 `json:"warmMisses,omitempty"`
	WarmBailouts int64 `json:"warmBailouts,omitempty"`
}

// CountersFrom snapshots the counter values of a telemetry set.
func CountersFrom(set *obs.Set) Counters {
	var c Counters
	if e := set.ExplorerOf(); e != nil {
		c.Analyses = e.Analyses.Value()
		c.StatesExplored = e.StatesTotal.Value()
		c.Deadlocks = e.Deadlocks.Value()
		c.Interrupted = e.Interrupted.Value()
	}
	if s := set.SimOf(); s != nil {
		c.SimRuns = s.Runs.Value()
		c.SimSteps = s.Steps.Value()
		c.SimRounds = s.Rounds.Value()
		c.BusyCycles = s.BusyCycles.Value()
		c.StallCycles = s.StallCycles.Value()
		c.FaultEvents = s.FaultEvents.Value()
	}
	if sv := set.SolverOf(); sv != nil {
		c.SolverNodes = sv.NodesExpanded.Value()
		c.SolverPruned = sv.NodesPruned.Value()
		c.SolverIncumbents = sv.Incumbents.Value()
	}
	if w := set.WarmOf(); w != nil {
		c.WarmExact = w.Exact.Value()
		c.WarmMisses = w.Misses.Value()
		c.WarmBailouts = w.Bailouts.Value()
	}
	return c
}

// Artifact is one file to store alongside a record.
type Artifact struct {
	Name string
	Data []byte
}

// Options configures a Registry.
type Options struct {
	// Clock stamps records and drives age-based GC; nil selects the
	// system clock.
	Clock clock.Clock
	// MaxRecords bounds the index length; 0 means unlimited. Exceeding
	// the bound triggers GC on Append.
	MaxRecords int
	// MaxAge expires records older than this; 0 means no age bound. Age
	// is only enforced by GC (explicit or append-triggered).
	MaxAge time.Duration
}

// Registry is the persistent run registry rooted at one directory. All
// methods are safe for concurrent use.
type Registry struct {
	dir string
	clk clock.Clock
	opt Options

	mu        sync.Mutex
	recs      []Record
	byID      map[string]int
	baselines map[string]Record
	// keys interns the graph and baseline keys of appended records.
	keys  map[string]string
	seq   int64
	index *os.File

	// indexLen is the byte length of the intact index — the truncation
	// target when an append fails partway (self-healing torn appends).
	// broken marks a registry whose self-heal truncate itself failed;
	// further appends are refused until reopen.
	indexLen int64
	broken   bool

	// testAppendFault, when set by tests, intercepts index-line writes
	// to inject short/failing writes (the ENOSPC and torn-append
	// faults) without touching the production path.
	testAppendFault func(f *os.File, p []byte) (int, error)

	// tip is the chain hash of the last record; tree is the Merkle tree
	// over all record chain hashes (leaves in append order); blobs is
	// the content-addressed artifact store; legacy counts recovered
	// records that predate the ledger (chained in memory, adopted on
	// disk by fsck -repair or the next GC rewrite).
	tip    ledger.Hash
	tree   *ledger.Tree
	blobs  *blobs.Store
	legacy int

	records       *obs.Gauge
	regressions   *obs.Counter
	gcRemoved     *obs.Counter
	ledgerAppends *obs.Counter
	legacyGauge   *obs.Gauge
}

const (
	indexName     = "index.jsonl"
	baselinesName = "baselines.jsonl"
	runsDirName   = "runs"
	blobsDirName  = "blobs"
)

// Open creates or recovers the registry rooted at dir.
func Open(dir string, opt Options) (*Registry, error) {
	if opt.Clock == nil {
		opt.Clock = clock.System()
	}
	if err := os.MkdirAll(filepath.Join(dir, runsDirName), 0o755); err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	r := &Registry{
		dir: dir, clk: opt.Clock, opt: opt,
		byID:      make(map[string]int),
		baselines: make(map[string]Record),
		keys:      make(map[string]string),
		tree:      &ledger.Tree{},
		tip:       ledger.Genesis(),
		records:   &obs.Gauge{}, regressions: &obs.Counter{}, gcRemoved: &obs.Counter{},
		ledgerAppends: &obs.Counter{}, legacyGauge: &obs.Gauge{},
	}
	bs, err := blobs.Open(filepath.Join(dir, blobsDirName))
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	r.blobs = bs
	recs, raws, err := recoverJSONL(filepath.Join(dir, indexName))
	if err != nil {
		return nil, err
	}
	for i := range recs {
		rec := recs[i]
		// Extend the in-memory chain over the recovered record, verifying
		// chained records as we go: tampering that survives JSON parsing
		// (the crash-recovery layer) is refused here, with a pointer to
		// the repair tool. Legacy (pre-ledger) records are adopted into
		// the chain in memory and on disk by the next GC or fsck -repair.
		leaf, legacy, cerr := chainStep(r.tip, &rec, raws[i], i == 0)
		if cerr != nil {
			return nil, fmt.Errorf("runlog: record %d (%s): %w; run `mamps-runs fsck -repair` to quarantine the damage", i+1, rec.ID, cerr)
		}
		if legacy {
			r.legacy++
		}
		r.tip = leaf
		r.tree.Append(leaf)
		r.byID[rec.ID] = len(r.recs)
		r.recs = append(r.recs, rec)
		if rec.Seq > r.seq {
			r.seq = rec.Seq
		}
	}
	bases, _, err := recoverJSONL(filepath.Join(dir, baselinesName))
	if err != nil {
		return nil, err
	}
	for _, b := range bases { // append-only: the latest baseline per key wins
		r.baselines[b.baselineKey()] = b
	}
	r.index, err = os.OpenFile(filepath.Join(dir, indexName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runlog: %w", err)
	}
	if st, err := r.index.Stat(); err == nil {
		r.indexLen = st.Size()
	}
	r.records.Store(int64(len(r.recs)))
	r.legacyGauge.Store(int64(r.legacy))
	return r, nil
}

// chainStep verifies (or, for a legacy record, computes) one record's
// place in the hash chain given the running tip, returning the record's
// chain hash. raw is the record's trimmed on-disk line: a chained line
// must byte-equal the re-marshal of its parsed form (appendLine and GC
// only ever write canonical lines), which catches corruption the parse
// forgives — a flipped byte in the key of a zero-valued field parses to
// the identical record. first relaxes nothing — the first record's
// PrevHash must be the genesis hash, the invariant Append preserves and
// GC restores after dropping old records.
func chainStep(tip ledger.Hash, rec *Record, raw []byte, first bool) (leaf ledger.Hash, legacy bool, err error) {
	content, err := contentHash(rec)
	if err != nil {
		return ledger.Hash{}, false, err
	}
	if rec.RecordHash == "" {
		if rec.PrevHash != "" {
			return ledger.Hash{}, false, fmt.Errorf("prevHash present without recordHash")
		}
		// Pre-ledger record: chain over its computed content hash, with no
		// canonical-form requirement (older writers may have used other
		// field sets). A flipped byte in a legacy record still surfaces —
		// the next chained record's stored prevHash no longer matches.
		return ledger.Link(tip, content), true, nil
	}
	if canon, merr := json.Marshal(rec); merr != nil {
		return ledger.Hash{}, false, merr
	} else if !bytes.Equal(canon, raw) {
		return ledger.Hash{}, false, fmt.Errorf("non-canonical record encoding (corrupted bytes the parse forgives)")
	}
	prev, perr := ledger.ParseHex(rec.PrevHash)
	if perr != nil {
		return ledger.Hash{}, false, fmt.Errorf("bad prevHash: %v", perr)
	}
	stored, serr := ledger.ParseHex(rec.RecordHash)
	if serr != nil {
		return ledger.Hash{}, false, fmt.Errorf("bad recordHash: %v", serr)
	}
	if want := ledger.Link(prev, content); stored != want {
		return ledger.Hash{}, false, fmt.Errorf("record hash mismatch (content or chain fields corrupted): stored %s, computed %s", rec.RecordHash, want.Hex())
	}
	if prev != tip {
		if first {
			return ledger.Hash{}, false, fmt.Errorf("chain anchor mismatch: first record's prevHash %s is not the genesis hash %s", rec.PrevHash, tip.Hex())
		}
		return ledger.Hash{}, false, fmt.Errorf("chain broken: prevHash %s does not match predecessor's hash %s", rec.PrevHash, tip.Hex())
	}
	return stored, false, nil
}

// Close releases the index file. The registry must not be used after.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.index == nil {
		return nil
	}
	err := r.index.Close()
	r.index = nil
	return err
}

// Dir returns the registry root directory.
func (r *Registry) Dir() string { return r.dir }

// AttachMetrics registers the registry's metrics — record count,
// regressions detected, records removed by GC — with an obs registry, so
// a serving process exposes them on /metrics. Values accumulated before
// attachment are preserved (the same metric objects are registered).
func (r *Registry) AttachMetrics(reg *obs.Registry) {
	reg.RegisterGauge("mamps_runlog_records", "Records in the run registry index.", r.records)
	reg.RegisterCounter("mamps_regressions_total", "Runs that drifted beyond tolerance from their baseline.", r.regressions)
	reg.RegisterCounter("mamps_runlog_gc_removed_total", "Run records removed by retention GC.", r.gcRemoved)
	reg.RegisterCounter("mamps_ledger_appends_total", "Records appended to the Merkle-chained ledger.", r.ledgerAppends)
	reg.RegisterGauge("mamps_ledger_legacy_records", "Recovered pre-ledger records awaiting chain adoption.", r.legacyGauge)
	writes, dedups, gcRemoved := r.blobs.Metrics()
	reg.RegisterCounter("mamps_blob_writes_total", "Artifact blobs written to the content-addressed store.", writes)
	reg.RegisterCounter("mamps_blob_dedup_total", "Artifact stores answered by an existing identical blob.", dedups)
	reg.RegisterCounter("mamps_blob_gc_removed_total", "Unreferenced artifact blobs removed by GC.", gcRemoved)
}

// Root returns the current Merkle chain root over all record hashes, as
// 64 hex chars — the value a consumer pins externally (it is published
// on /metrics) and verifies inclusion proofs against.
func (r *Registry) Root() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tree.Root().Hex()
}

// InclusionProof is a run's verifiable membership claim: the Merkle
// inclusion proof of its record's chain hash against the registry's
// current root. Returned by Prove and GET /v1/runs/{id}/proof.
type InclusionProof struct {
	RunID string       `json:"runId"`
	Proof ledger.Proof `json:"proof"`
}

// Prove returns the inclusion proof of the identified run against the
// current chain root.
func (r *Registry) Prove(id string) (InclusionProof, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byID[id]
	if !ok {
		return InclusionProof{}, fmt.Errorf("runlog: no run %q", id)
	}
	p, err := r.tree.Prove(i)
	if err != nil {
		return InclusionProof{}, fmt.Errorf("runlog: %w", err)
	}
	return InclusionProof{RunID: id, Proof: *p}, nil
}

// Regressions returns the number of regressions detected since Open.
func (r *Registry) Regressions() int64 { return r.regressions.Value() }

// recoverJSONL reads records from a JSONL file, tolerating a truncated
// final record: complete, parseable lines are kept; a trailing fragment
// (no newline, or garbage) is dropped and the file truncated back to the
// last intact line. A parseable final line that merely lost its newline
// is kept and the newline restored.
func recoverJSONL(path string) ([]Record, [][]byte, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("runlog: %w", err)
	}
	recs, raws, good, fragKept := parseIndexBytes(data)
	if good == len(data) {
		return recs, raws, nil
	}
	if fragKept {
		// The trailing fragment parses: it only lost its newline. Keep it
		// and normalize the file.
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("runlog: %w", err)
		}
		_, werr := f.WriteString("\n")
		cerr := f.Close()
		if werr != nil || cerr != nil {
			return nil, nil, fmt.Errorf("runlog: repairing %s: %v, %v", path, werr, cerr)
		}
		return recs, raws, nil
	}
	if err := os.Truncate(path, int64(good)); err != nil {
		return nil, nil, fmt.Errorf("runlog: truncating damaged tail of %s: %w", path, err)
	}
	return recs, raws, nil
}

// parseIndexBytes is the pure index-line parser under recoverJSONL
// (and the fuzz target guarding it): recs are the records of the
// longest intact prefix with raws their trimmed line bytes (kept so
// chain verification can check canonical encoding), good the byte
// length of that intact, newline-terminated prefix, and fragKept
// reports that a trailing unterminated fragment parsed as a record and
// was appended to recs (the signature of a crash between write and
// newline). Arbitrary input bytes must never panic — only shorten the
// result.
func parseIndexBytes(data []byte) (recs []Record, raws [][]byte, good int, fragKept bool) {
	rest := data
	for {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			break
		}
		line := bytes.TrimSpace(rest[:nl])
		rest = rest[nl+1:]
		if len(line) == 0 {
			good += nl + 1
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			// A garbled line mid-file means everything after it is
			// suspect; drop from here.
			return recs, raws, good, false
		}
		recs = append(recs, rec)
		raws = append(raws, line)
		good += nl + 1
	}
	if good == len(data) {
		return recs, raws, good, false
	}
	frag := bytes.TrimSpace(data[good:])
	var rec Record
	if len(frag) > 0 && json.Unmarshal(frag, &rec) == nil {
		recs = append(recs, rec)
		raws = append(raws, frag)
		return recs, raws, good, true
	}
	return recs, raws, good, false
}

// baselineKey returns the key a record is baseline-matched under.
func (rec *Record) baselineKey() string {
	if rec.BaselineKey != "" {
		return rec.BaselineKey
	}
	if rec.Corpus != "" {
		return "corpus/" + rec.Corpus
	}
	return "graph/" + rec.GraphKey
}

// internLimit bounds Registry.keys; the table starts over when full.
const internLimit = 4096

// intern returns the registry's copy of s, so the retained records of
// one graph or baseline share one string.
func (r *Registry) intern(s string) string {
	if v, ok := r.keys[s]; ok {
		return v
	}
	if len(r.keys) >= internLimit {
		clear(r.keys)
	}
	r.keys[s] = s
	return s
}

// shortKey abbreviates a graph key for run IDs, sanitized so minted
// IDs always satisfy ValidID: anything outside [0-9a-z] becomes '-',
// so a graph key can never smuggle a path separator or dot into an ID
// (and thus into a filesystem path).
func shortKey(key string) string {
	if len(key) > 8 {
		key = key[:8]
	}
	if key == "" {
		return "nokey"
	}
	b := []byte(key)
	for i, c := range b {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
			b[i] = c + ('a' - 'A')
		default:
			b[i] = '-'
		}
	}
	return string(b)
}

// Append assigns the record its identity (ID, Seq, Time), runs the
// regression check against the baseline for the record's key, stores
// the artifacts in the blob store, and durably appends the record to the index. The stored
// record is returned. If retention bounds are set and exceeded, a GC
// pass runs before returning.
func (r *Registry) Append(rec Record, artifacts ...Artifact) (Record, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.index == nil {
		return Record{}, fmt.Errorf("runlog: registry is closed")
	}
	r.seq++
	rec.Seq = r.seq
	rec.ID = fmt.Sprintf("r%06d-%s", rec.Seq, shortKey(rec.GraphKey))
	rec.Time = r.clk.Now().UTC()
	rec.BaselineKey = rec.baselineKey()

	if base, ok := r.baselines[rec.BaselineKey]; ok {
		reg := compareToBaseline(&base, &rec)
		rec.Regression = reg
		if reg.Regressed {
			r.regressions.Add(1)
		}
	}

	// Artifacts go to the content-addressed blob store before the index
	// append: a crash between the two leaves unreferenced blobs that the
	// next GC sweeps, never a dangling index entry. Identical artifact
	// bytes across runs share one blob.
	if len(artifacts) > 0 {
		rec.ArtifactBlobs = make(BlobRefs, 0, len(artifacts))
		for _, a := range artifacts {
			name := filepath.Base(a.Name) // no path traversal out of the store
			digest, err := r.blobs.Put(a.Data)
			if err != nil {
				return Record{}, fmt.Errorf("runlog: artifact %s: %w", name, err)
			}
			rec.ArtifactBlobs.set(name, digest)
			rec.Artifacts = append(rec.Artifacts, name)
		}
		sort.Strings(rec.Artifacts)
	}

	// Chain the record: its content hash (over every field above) links
	// from the current tip.
	rec.Format = FormatChained
	content, err := contentHash(&rec)
	if err != nil {
		return Record{}, err
	}
	h := ledger.Link(r.tip, content)
	rec.PrevHash = r.tip.Hex()
	rec.RecordHash = h.Hex()
	// A retained record lives as long as retention keeps it: share the
	// previous record's hash string and the keys earlier records carry.
	if n := len(r.recs); n > 0 && r.recs[n-1].RecordHash == rec.PrevHash {
		rec.PrevHash = r.recs[n-1].RecordHash
	}
	rec.GraphKey = r.intern(rec.GraphKey)
	rec.BaselineKey = r.intern(rec.BaselineKey)

	if err := r.appendLine(rec); err != nil {
		return Record{}, err
	}
	r.tip = h
	r.tree.Append(h)
	r.ledgerAppends.Add(1)
	r.byID[rec.ID] = len(r.recs)
	r.recs = append(r.recs, rec)
	r.records.Store(int64(len(r.recs)))

	if r.opt.MaxRecords > 0 && len(r.recs) > r.opt.MaxRecords {
		if _, err := r.gcLocked(); err != nil {
			return Record{}, err
		}
	}
	return rec, nil
}

// ReadBlob returns the digest-verified bytes of one blob — the profiles
// of a diagnostic bundle are digest-addressed rather than run-addressed,
// so readers resolve them here.
func (r *Registry) ReadBlob(digest string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.index == nil {
		return nil, fmt.Errorf("runlog: registry is closed")
	}
	return r.blobs.Read(digest)
}

// appendLine writes one record to the index and syncs it to disk. A
// failed or short write (disk full, I/O error) is self-healed: the
// index is truncated back to the last intact line, so the torn bytes
// never corrupt subsequent appends and the registry stays usable once
// space frees up. Only if that truncation itself fails is the registry
// marked broken (reopen required).
func (r *Registry) appendLine(rec Record) error {
	if r.broken {
		return fmt.Errorf("runlog: index is in an unknown state after a failed self-heal; reopen the registry")
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	line = append(line, '\n')
	write := r.index.Write
	if r.testAppendFault != nil {
		f := r.index
		write = func(p []byte) (int, error) { return r.testAppendFault(f, p) }
	}
	_, werr := write(line)
	if werr == nil {
		werr = r.index.Sync()
	}
	if werr != nil {
		if terr := r.index.Truncate(r.indexLen); terr != nil {
			r.broken = true
			return fmt.Errorf("runlog: appending index: %v (self-heal truncate also failed: %v; reopen the registry)", werr, terr)
		}
		return fmt.Errorf("runlog: appending index: %w (torn bytes truncated away)", werr)
	}
	r.indexLen += int64(len(line))
	return nil
}

// Get returns the record with the given ID.
func (r *Registry) Get(id string) (Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byID[id]
	if !ok {
		return Record{}, false
	}
	return r.recs[i], true
}

// ArtifactPath returns the on-disk path of a run's artifact, verifying
// the record lists it. Blob-backed artifacts resolve into the
// content-addressed store; legacy records resolve under runs/<id>/.
func (r *Registry) ArtifactPath(id, name string) (string, error) {
	rec, ok := r.Get(id)
	if !ok {
		return "", fmt.Errorf("runlog: no run %q", id)
	}
	if digest, ok := rec.ArtifactBlobs.Get(name); ok {
		return r.blobs.Path(digest)
	}
	for _, a := range rec.Artifacts {
		if a == name {
			if !ValidID(id) { // belt and braces before the path join
				return "", fmt.Errorf("runlog: invalid run id %q", id)
			}
			return filepath.Join(r.dir, runsDirName, id, name), nil
		}
	}
	return "", fmt.Errorf("runlog: run %s has no artifact %q", id, name)
}

// ReadArtifact returns an artifact's bytes. Blob-backed content is
// verified against its digest on every read — corruption on disk is an
// error, never silently served.
func (r *Registry) ReadArtifact(id, name string) ([]byte, error) {
	rec, ok := r.Get(id)
	if !ok {
		return nil, fmt.Errorf("runlog: no run %q", id)
	}
	if digest, ok := rec.ArtifactBlobs.Get(name); ok {
		data, err := r.blobs.Read(digest)
		if err != nil {
			return nil, fmt.Errorf("runlog: run %s artifact %q: %w", id, name, err)
		}
		return data, nil
	}
	path, err := r.ArtifactPath(id, name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runlog: run %s artifact %q: %w", id, name, err)
	}
	return data, nil
}

// Filter selects records: a predicate over stored records, shared by
// List, the run-lake aggregation (internal/obs/agg), GET /v1/runs,
// GET /v1/stats and `mamps-runs list` and `stats`. Zero fields match
// everything.
type Filter struct {
	// App, Kind, BaselineKey and Corpus match exactly when non-empty;
	// GraphKey matches as a prefix (keys are long hashes, a shortened
	// prefix from a listing must resolve).
	App, Kind, GraphKey, BaselineKey, Corpus string
	// Regressed selects runs tagged as regressions, Degraded runs that
	// ended in degraded mode, Deadlocked deadlocked runs and Faulted
	// runs executed under an injected fault spec.
	Regressed, Degraded, Deadlocked, Faulted bool
	// Since selects runs at or after the given time; Until selects runs
	// strictly before it.
	Since, Until time.Time
}

// Match reports whether rec passes the filter.
func (f *Filter) Match(rec *Record) bool {
	switch {
	case f.App != "" && rec.App != f.App,
		f.Kind != "" && rec.Kind != f.Kind,
		f.GraphKey != "" && !strings.HasPrefix(rec.GraphKey, f.GraphKey),
		f.BaselineKey != "" && rec.BaselineKey != f.BaselineKey,
		f.Corpus != "" && rec.Corpus != f.Corpus,
		f.Regressed && (rec.Regression == nil || !rec.Regression.Regressed),
		f.Degraded && rec.Outcome != "degraded",
		f.Deadlocked && rec.Outcome != "deadlock",
		f.Faulted && rec.Config.Faults == nil,
		!f.Since.IsZero() && rec.Time.Before(f.Since),
		!f.Until.IsZero() && !rec.Time.Before(f.Until):
		return false
	}
	return true
}

// Flags returns a flag set with one flag per field of f, named as the
// GET /v1/runs and /v1/stats query parameters (graphKey, since, ...),
// that sets the field: strings as given, the flags regressed, degraded,
// deadlocked and faulted as booleans, since and until as RFC 3339
// times (empty clears the bound). Callers add their own flags to the
// set; mamps-runs defines the same flags under kebab-case names.
func (f *Filter) Flags() *flag.FlagSet {
	fs := flag.NewFlagSet("filter", flag.ContinueOnError)
	fs.StringVar(&f.App, "app", "", "only runs of this application")
	fs.StringVar(&f.Kind, "kind", "", "only runs of this kind (flow, dse, analysis, diag)")
	fs.StringVar(&f.GraphKey, "graphKey", "", "only runs whose graph key starts with this prefix")
	fs.StringVar(&f.BaselineKey, "baselineKey", "", "only runs under this baseline key")
	fs.StringVar(&f.Corpus, "corpus", "", "only replays of this corpus entry")
	fs.BoolVar(&f.Regressed, "regressed", false, "only runs tagged as regressions")
	fs.BoolVar(&f.Degraded, "degraded", false, "only runs that ended in degraded mode")
	fs.BoolVar(&f.Deadlocked, "deadlocked", false, "only deadlocked runs")
	fs.BoolVar(&f.Faulted, "faulted", false, "only runs executed under an injected fault")
	fs.Var((*timeValue)(&f.Since), "since", "only runs at or after this `time` (RFC 3339)")
	fs.Var((*timeValue)(&f.Until), "until", "only runs before this `time` (RFC 3339)")
	return fs
}

// timeValue is the flag.Value of Filter.Since and Until.
type timeValue time.Time

func (t *timeValue) Set(s string) error {
	if s == "" {
		*t = timeValue{}
		return nil
	}
	v, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return fmt.Errorf("want RFC 3339 (%v)", err)
	}
	*t = timeValue(v)
	return nil
}

func (t *timeValue) String() string {
	if t == nil || time.Time(*t).IsZero() {
		return ""
	}
	return time.Time(*t).Format(time.RFC3339)
}

// List returns the records matching f, newest first, after skipping
// offset of them and keeping at most limit (0 means no bound), plus the
// total number of matches before paging. It counts matches in place and
// copies only the page, so a small page over a large index costs the lock
// that Append takes one scan and no copying. The page is nil only when
// nothing matches (it encodes as null on /v1/runs, an empty page as []).
func (r *Registry) List(f Filter, offset, limit int) ([]Record, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var page []Record
	total := 0
	for i := len(r.recs) - 1; i >= 0; i-- {
		if !f.Match(&r.recs[i]) {
			continue
		}
		if total >= offset && (limit <= 0 || len(page) < limit) {
			page = append(page, r.recs[i])
		}
		total++
	}
	if total > 0 && page == nil {
		page = []Record{}
	}
	return page, total
}

// Each calls fn on every record, newest first, under the registry lock:
// fn must not keep the pointer or call back into the registry.
func (r *Registry) Each(fn func(*Record)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.recs) - 1; i >= 0; i-- {
		fn(&r.recs[i])
	}
}

// Len returns the number of records in the index.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// SetBaseline freezes the identified run as the reference record for its
// baseline key. Later runs of the same key are compared against it on
// Append.
func (r *Registry) SetBaseline(id string) (Record, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byID[id]
	if !ok {
		return Record{}, fmt.Errorf("runlog: no run %q", id)
	}
	rec := r.recs[i]
	if err := r.importBaselineLocked(rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// ImportBaseline installs an externally produced reference record (e.g.
// from a checked-in baseline file) without requiring the run to exist in
// this registry's index.
func (r *Registry) ImportBaseline(rec Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.importBaselineLocked(rec)
}

func (r *Registry) importBaselineLocked(rec Record) error {
	rec.BaselineKey = rec.baselineKey()
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(r.dir, baselinesName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	_, werr := f.Write(append(line, '\n'))
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("runlog: appending baseline: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("runlog: %w", cerr)
	}
	r.baselines[rec.BaselineKey] = rec
	return nil
}

// Baselines returns the frozen reference records, sorted by key.
func (r *Registry) Baselines() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.baselines))
	for k := range r.baselines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Record, 0, len(keys))
	for _, k := range keys {
		out = append(out, r.baselines[k])
	}
	return out
}

// Baseline returns the reference record for a key, if frozen.
func (r *Registry) Baseline(key string) (Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.baselines[key]
	return b, ok
}

// GC enforces the retention bounds: records beyond MaxRecords (oldest
// first) or older than MaxAge are dropped, the index is rewritten
// atomically, expired artifact directories are removed, and orphan
// artifact directories (from a crash between artifact write and index
// append) are swept. Returns the number of records removed.
func (r *Registry) GC() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gcLocked()
}

func (r *Registry) gcLocked() (int, error) {
	if r.index == nil {
		return 0, fmt.Errorf("runlog: registry is closed")
	}
	cutoff := time.Time{}
	if r.opt.MaxAge > 0 {
		cutoff = r.clk.Now().UTC().Add(-r.opt.MaxAge)
	}
	keep := r.recs[:0:0]
	var dropped []Record
	for _, rec := range r.recs {
		if !cutoff.IsZero() && rec.Time.Before(cutoff) {
			dropped = append(dropped, rec)
			continue
		}
		keep = append(keep, rec)
	}
	if r.opt.MaxRecords > 0 && len(keep) > r.opt.MaxRecords {
		over := len(keep) - r.opt.MaxRecords
		dropped = append(dropped, keep[:over]...)
		keep = keep[over:]
	}

	// Rewrite the index atomically even when nothing was dropped from
	// the in-memory view: GC doubles as the orphan sweep, compaction and
	// chain-migration entry point. The kept records are re-chained from
	// genesis — dropping the oldest records moves the anchor, and any
	// legacy (pre-ledger) record is adopted into the chain here, which
	// is the automatic half of the versioned migration path (fsck
	// -repair is the explicit half). When nothing was dropped and no
	// record is legacy, the re-chain reproduces the stored hashes
	// byte-identically.
	tip, tree, indexLen, err := chainAndWriteIndex(r.dir, keep)
	if err != nil {
		return 0, err
	}
	// Reopen the append handle on the renamed file.
	r.index.Close()
	r.index, err = os.OpenFile(filepath.Join(r.dir, indexName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("runlog: %w", err)
	}
	r.indexLen = indexLen
	r.broken = false
	r.tip, r.tree = tip, tree
	r.legacy = 0
	r.legacyGauge.Store(0)

	r.recs = keep
	r.byID = make(map[string]int, len(keep))
	for i, rec := range keep {
		r.byID[rec.ID] = i
	}
	r.records.Store(int64(len(r.recs)))
	r.gcRemoved.Add(int64(len(dropped)))

	// Remove expired and orphan legacy artifact directories.
	runsDir := filepath.Join(r.dir, runsDirName)
	for _, rec := range dropped {
		os.RemoveAll(filepath.Join(runsDir, rec.ID))
	}
	if entries, err := os.ReadDir(runsDir); err == nil {
		for _, e := range entries {
			if _, ok := r.byID[e.Name()]; !ok {
				os.RemoveAll(filepath.Join(runsDir, e.Name()))
			}
		}
	}
	// Reference-counted blob sweep: count every digest the kept records
	// reference and remove the rest (expired runs' artifacts, orphans of
	// a crash between blob write and index append, crashed-Put debris).
	refs := make(map[string]int)
	for i := range keep {
		for _, b := range keep[i].ArtifactBlobs {
			refs[b.Digest]++
		}
		for _, d := range keep[i].Profiles {
			refs[d]++
		}
	}
	if _, err := r.blobs.GC(refs); err != nil {
		return 0, fmt.Errorf("runlog: %w", err)
	}
	return len(dropped), nil
}

// chainAndWriteIndex re-chains recs from genesis — adopting any legacy
// record (Format becomes FormatChained) — and writes the result
// atomically (temp + fsync + rename) to dir's index. recs is modified
// in place with the recomputed chain fields. Shared by GC and fsck
// -repair: both restore the invariant that the on-disk index chains
// from the genesis anchor. For an input that is already fully chained
// and unchanged, the rewrite is byte-identical.
func chainAndWriteIndex(dir string, recs []Record) (tip ledger.Hash, tree *ledger.Tree, n int64, err error) {
	tip = ledger.Genesis()
	tree = &ledger.Tree{}
	tmp := filepath.Join(dir, indexName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return tip, tree, 0, fmt.Errorf("runlog: %w", err)
	}
	for i := range recs {
		rec := &recs[i]
		rec.PrevHash, rec.RecordHash = "", ""
		rec.Format = FormatChained
		content, cerr := contentHash(rec)
		if cerr != nil {
			f.Close()
			return tip, tree, 0, cerr
		}
		h := ledger.Link(tip, content)
		rec.PrevHash, rec.RecordHash = tip.Hex(), h.Hex()
		tip = h
		tree.Append(h)
		line, merr := json.Marshal(rec)
		if merr != nil {
			f.Close()
			return tip, tree, 0, fmt.Errorf("runlog: %w", merr)
		}
		if _, werr := f.Write(append(line, '\n')); werr != nil {
			f.Close()
			return tip, tree, 0, fmt.Errorf("runlog: %w", werr)
		}
		n += int64(len(line)) + 1
	}
	if serr := f.Sync(); serr != nil {
		f.Close()
		return tip, tree, 0, fmt.Errorf("runlog: %w", serr)
	}
	if cerr := f.Close(); cerr != nil {
		return tip, tree, 0, fmt.Errorf("runlog: %w", cerr)
	}
	if rerr := os.Rename(tmp, filepath.Join(dir, indexName)); rerr != nil {
		return tip, tree, 0, fmt.Errorf("runlog: %w", rerr)
	}
	return tip, tree, n, nil
}
