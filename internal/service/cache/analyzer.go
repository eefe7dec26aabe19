package cache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"slices"
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
	res   statespace.Result
}

// Analyzer returns the state-space analysis entry point, suitable for the
// mapping and buffer Analyze hooks. It threads ctx into the exploration
// so long analyses are cancellable, publishes the explorer counters of
// tel and records one span per exploration on its trace's "statespace"
// track.
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
func Analyzer(c *Cache, ctx context.Context, tel *obs.Set) func(*sdf.Graph, statespace.Options) (statespace.Result, error) {
	explorer := tel.ExplorerOf()
	scope := tel.TraceOf().Scope("statespace")
	cold := func(g *sdf.Graph, opt statespace.Options) (statespace.Result, error) {
		opt.Interrupt = ctx.Done()
		opt.Telemetry = explorer
		span := scope.Begin("analyze", obs.String("graph", g.Name))
		r, err := statespace.Analyze(g, opt)
		span.SetAttrs(
			obs.Int("states", int64(r.StatesExplored)),
			obs.Float("throughput", r.Throughput),
			obs.Bool("deadlocked", r.Deadlocked),
		)
		span.End()
		return r, err
	}
	if c == nil {
		return cold
	}
	warm := tel.WarmOf()
	if warm == nil {
		warm = &obs.WarmStats{}
	}
	return func(g *sdf.Graph, opt statespace.Options) (statespace.Result, error) {
		budget := opt.MaxStates
		if budget == 0 {
			budget = statespace.DefaultMaxStates
		}
		v, joined, err := c.Do(ctx, analysisKey(g, opt), func() (any, error) {
			r, err := cold(g, opt)
			if err != nil {
				return nil, err
			}
			return newMemo(opt, r), nil
		})
		if err != nil {
			warm.Misses.Add(1)
			var pe *PanicError
			if joined && !errors.As(err, &pe) {
				// The leader's cancellation or budget is not this caller's;
				// its panic would be.
				return cold(g, opt)
			}
			return statespace.Result{}, err
		}
		m := v.(*memo)
		switch {
		case !joined:
			warm.Misses.Add(1)
		case m.res.StatesExplored >= budget || m.tiles != nil && !sameTiles(m.tiles, opt.Schedules):
			// n cached states fit only budgets admitting n inserts plus
			// the terminating revisit probe; a deadlock report names the
			// tiles, which the key leaves out.
			warm.Misses.Add(1)
			warm.Bailouts.Add(1)
			return cold(g, opt)
		default:
			warm.Exact.Add(1)
		}
		return copyResult(m.res), nil
	}
}

func newMemo(opt statespace.Options, res statespace.Result) *memo {
	m := &memo{res: res}
	if res.DeadlockReport != "" {
		for _, s := range opt.Schedules {
			m.tiles = append(m.tiles, s.Tile)
		}
	}
	return m
}

func sameTiles(tiles []string, scheds []statespace.Schedule) bool {
	for i, s := range scheds {
		if s.Tile != tiles[i] {
			return false
		}
	}
	return true
}

func copyResult(r statespace.Result) statespace.Result {
	r.MaxTokens = slices.Clone(r.MaxTokens)
	return r
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
// reference actor; the WCET vector. The key is the raw SHA-256 of that
// serialization, whose 32 bytes cannot equal a hex request key.
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
	b := append(k.buf[:0], "mamps/analysis/v2"...)
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
	b = binary.AppendVarint(b, int64(opt.ReferenceActor))
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
