package cache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"sync"

	"mamps/internal/obs"
	"mamps/internal/sdf"
	"mamps/internal/statespace"
)

// memo is one remembered exploration, cached under the analysis's exact
// key. Immutable once stored.
type memo struct {
	// tiles holds the schedules' tile labels when res carries a deadlock
	// report, the only output that prints them.
	tiles []string
	// res is the Result without its MaxTokens, which maxTokens holds
	// varint-packed: token counts are small, and a memo entry lives as
	// long as the cache keeps it.
	res       statespace.Result
	maxTokens []byte
}

// Analyzer returns the state-space analysis entry point, suitable for the
// mapping and buffer Analyze hooks. It threads ctx into the exploration
// so long analyses are cancellable, publishes the explorer counters of
// explorations it runs into tel.Explorer and records one span per lookup
// on its trace's "statespace" track (flagged memo=true when the memo
// answered).
//
// With a non-nil c, analyses are memoized in c, single-flight, under
// their exact key: a request that matches a prior analysis gets its
// Result deep-copied. Anything else runs cold. Reuse is refused (a
// bailout, counted as a miss) when the prior exploration does not
// provably fit the request's MaxStates budget, and for a deadlock report
// printed for other tile labels. Every lookup counts in tel's warm-start
// stats as exactly one of exact or miss.
//
// A nil c is a cold analysis with the same cancellation and telemetry.
//
// With a non-nil tel.Record, the analyzer is one recorded run's, and
// tel.Record receives the explorer counters a cold run on a private,
// empty memo would publish, whatever earlier requests left in c: each
// distinct key the run analyzes counts once, from its Result, whether
// it was explored or answered by the memo, and again only where that
// private memo would refuse reuse; an interrupted lookup counts in
// Interrupted. tel.Explorer still counts only the explorations actually
// run.
func Analyzer(c *Cache, ctx context.Context, tel *obs.Set) func(*sdf.Graph, statespace.Options) (statespace.Result, error) {
	explorer := tel.ExplorerOf()
	scope := tel.TraceOf().Scope("statespace")
	run := newRunCounts(tel.RecordOf())
	cold := func(g *sdf.Graph, opt statespace.Options) (statespace.Result, error) {
		opt.Interrupt = ctx.Done()
		opt.Telemetry = explorer
		return statespace.Analyze(g, opt)
	}
	lookup := func(_ string, g *sdf.Graph, opt statespace.Options) (statespace.Result, bool, error) {
		r, err := cold(g, opt)
		return r, false, err
	}
	if c != nil {
		lookup = memoLookup(c, ctx, tel.WarmOf(), cold)
	}
	return func(g *sdf.Graph, opt statespace.Options) (statespace.Result, error) {
		var span obs.Span
		if scope != nil { // the attrs would allocate even for a nil scope
			span = scope.Begin("analyze", obs.String("graph", g.Name))
		}
		var key string
		if c != nil || run != nil {
			key = analysisKey(g, opt)
		}
		r, memoized, err := lookup(key, g, opt)
		if scope != nil {
			attrs := []obs.Attr{
				obs.Int("states", int64(r.StatesExplored)),
				obs.Float("throughput", r.Throughput.Float()),
				obs.Bool("deadlocked", r.Deadlocked),
			}
			if memoized {
				attrs = append(attrs, obs.Bool("memo", true))
			}
			span.SetAttrs(attrs...)
			span.End()
		}
		run.count(key, opt, r, err)
		return r, err
	}
}

// memoLookup answers lookups from c, running cold on a miss or a
// bailout. memoized reports whether the memo supplied the Result.
func memoLookup(c *Cache, ctx context.Context, warm *obs.WarmStats,
	cold func(*sdf.Graph, statespace.Options) (statespace.Result, error),
) func(string, *sdf.Graph, statespace.Options) (statespace.Result, bool, error) {
	if warm == nil {
		warm = &obs.WarmStats{}
	}
	return func(key string, g *sdf.Graph, opt statespace.Options) (statespace.Result, bool, error) {
		v, joined, err := c.Do(ctx, key, func() (any, error) {
			r, err := cold(g, opt)
			if err != nil {
				return nil, err
			}
			return newMemo(opt, r), nil
		})
		if err != nil {
			warm.Misses.Add(1)
			return statespace.Result{}, false, err
		}
		m := v.(*memo)
		switch {
		case !joined:
			warm.Misses.Add(1)
		case !reusable(m.res.StatesExplored, m.tiles, opt):
			warm.Misses.Add(1)
			warm.Bailouts.Add(1)
			r, err := cold(g, opt)
			return r, false, err
		default:
			warm.Exact.Add(1)
		}
		return m.result(), joined, nil
	}
}

// runCounts is one recorded run's view of its analyses: the record's
// explorer counters, and what a private memo would hold for each key the
// run has counted.
type runCounts struct {
	stats *obs.ExplorerStats
	mu    sync.Mutex
	seen  map[string]runKey
}

// runKey is what reusable needs of a private memo's entry.
type runKey struct {
	states int
	tiles  []string
}

func newRunCounts(stats *obs.ExplorerStats) *runCounts {
	if stats == nil {
		return nil
	}
	return &runCounts{stats: stats, seen: make(map[string]runKey)}
}

// count adds one lookup's outcome to the record as a private memo would
// see it: a successful Result counts unless that memo holds a reusable
// exploration of the key, and an interruption counts every time (no
// memo caches an error).
func (rc *runCounts) count(key string, opt statespace.Options, r statespace.Result, err error) {
	if rc == nil {
		return
	}
	if err != nil {
		if errors.Is(err, statespace.ErrInterrupted) {
			rc.stats.Interrupted.Add(1)
		}
		return
	}
	rc.mu.Lock()
	k, held := rc.seen[key]
	if !held {
		rc.seen[key] = runKey{states: r.StatesExplored, tiles: deadlockTiles(opt, r)}
	}
	rc.mu.Unlock()
	if held && reusable(k.states, k.tiles, opt) {
		return
	}
	rc.stats.Analyses.Add(1)
	rc.stats.StatesTotal.Add(int64(r.StatesExplored))
	if r.Deadlocked {
		rc.stats.Deadlocks.Add(1)
	}
}

// reusable reports whether an exploration of states states, whose
// deadlock report printed tiles (nil without a report), provably answers
// opt: n cached states fit only budgets admitting n inserts plus the
// terminating revisit probe, and a deadlock report names the tiles,
// which the key leaves out.
func reusable(states int, tiles []string, opt statespace.Options) bool {
	budget := opt.MaxStates
	if budget == 0 {
		budget = statespace.DefaultMaxStates
	}
	return states < budget && (tiles == nil || sameTiles(tiles, opt.Schedules))
}

// deadlockTiles returns the schedules' tile labels when res carries a
// deadlock report, the only output that prints them.
func deadlockTiles(opt statespace.Options, res statespace.Result) []string {
	if res.DeadlockReport == "" {
		return nil
	}
	tiles := make([]string, len(opt.Schedules))
	for i, s := range opt.Schedules {
		tiles[i] = s.Tile
	}
	return tiles
}

func newMemo(opt statespace.Options, res statespace.Result) *memo {
	m := &memo{res: res, tiles: deadlockTiles(opt, res)}
	if res.MaxTokens != nil {
		m.res.MaxTokens = nil
		m.maxTokens = binary.AppendUvarint(make([]byte, 0, 1+len(res.MaxTokens)), uint64(len(res.MaxTokens)))
		for _, n := range res.MaxTokens {
			m.maxTokens = binary.AppendVarint(m.maxTokens, n)
		}
	}
	return m
}

// result returns a deep copy of the memoized Result.
func (m *memo) result() statespace.Result {
	r := m.res
	if m.maxTokens != nil {
		n, k := binary.Uvarint(m.maxTokens)
		r.MaxTokens = make([]int64, n)
		b := m.maxTokens[k:]
		for i := range r.MaxTokens {
			if c := b[0]; c < 0x80 { // one byte: zigzag-decode inline
				r.MaxTokens[i], b = int64(c>>1)^-int64(c&1), b[1:]
				continue
			}
			r.MaxTokens[i], k = binary.Varint(b)
			b = b[k:]
		}
	}
	return r
}

func sameTiles(tiles []string, scheds []statespace.Schedule) bool {
	for i, s := range scheds {
		if s.Tile != tiles[i] {
			return false
		}
	}
	return true
}

// keyer is the reusable scratch of analysisKey.
type keyer struct {
	buf []byte
	h   hash.Hash
	sum [sha256.Size]byte
}

var keyers = sync.Pool{New: func() any { return &keyer{h: sha256.New()} }}

// analysisKey serializes one analysis request in a single pass over the
// graph in declaration order: actor names and concurrency caps; channel
// names, endpoints, rates and initial tokens; the schedules in order; the
// WCET vector. The key is the raw SHA-256 of that serialization, whose 32
// bytes cannot equal a hex request key.
//
// With the tile labels beside it, the key covers everything a Result
// depends on: DeadlockReport prints names and labels, and MaxTokens is
// indexed by channel ID. The labels are left out because they change
// nothing else, and bindings that differ only by a permutation of
// identical tiles (as a solver sweep visits them) then share one
// exploration; a memo with a deadlock report records its labels instead.
// MaxStates is left out too (the budget check covers it), as are the
// Interrupt and Telemetry plumbing.
func analysisKey(g *sdf.Graph, opt statespace.Options) string {
	k := keyers.Get().(*keyer)
	b := append(k.buf[:0], "mamps/analysis/v3"...)
	b = binary.AppendUvarint(b, uint64(g.NumActors()))
	for _, a := range g.Actors() {
		b = appendString(b, a.Name)
		b = binary.AppendVarint(b, int64(a.MaxConcurrent))
	}
	b = binary.AppendUvarint(b, uint64(g.NumChannels()))
	for _, c := range g.Channels() {
		b = appendString(b, c.Name)
		for _, v := range [...]int64{int64(c.Src), int64(c.Dst), int64(c.SrcRate), int64(c.DstRate), int64(c.InitialTokens)} {
			b = binary.AppendVarint(b, v)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(opt.Schedules)))
	for _, s := range opt.Schedules {
		b = appendIDs(b, s.Prologue)
		b = appendIDs(b, s.Entries)
	}
	for _, a := range g.Actors() {
		b = binary.AppendVarint(b, a.ExecTime)
	}
	k.h.Reset()
	k.h.Write(b)
	key := string(k.h.Sum(k.sum[:0]))
	k.buf = b
	keyers.Put(k)
	return key
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendIDs(b []byte, ids []sdf.ActorID) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendVarint(b, int64(id))
	}
	return b
}
