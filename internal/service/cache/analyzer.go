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

// memo is one remembered exploration. It is the cached value under the
// analysis's exact key and, while it is the latest of its structure, the
// scaled tier's entry for its structural key. Immutable once stored.
type memo struct {
	structural [sha256.Size]byte
	wcets      []int64 // per actor, declaration order
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
// With a non-nil c, analyses are memoized in c, single-flight, in two
// tiers, each sound or not taken:
//
//  1. Exact: the request's key matches a prior analysis; its Result is
//     returned deep-copied.
//  2. Scaled: the request differs from the latest prior analysis of the
//     same structure only by one exact rational factor p/q applied to
//     every WCET. The self-timed trajectory visits the same states with
//     time dilated by p/q, so period and transient scale arithmetically
//     and the throughput is recomputed from the integers as the kernel
//     does.
//
// Anything else runs cold. Reuse is refused (a bailout, counted as a miss)
// when the prior exploration does not provably fit the request's
// MaxStates budget, for deadlocks (never scaled, and served exactly only
// to the same tile labels), for period or transient not divisible by q
// or at risk of overflow, and for analyses with an OnComplete hook, whose
// value is the hook calls. Every lookup counts in tel's warm-start stats
// as exactly one of exact, scaled or miss.
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
	miss := func(bailout bool) {
		warm.Misses.Add(1)
		if bailout {
			warm.Bailouts.Add(1)
		}
	}
	return func(g *sdf.Graph, opt statespace.Options) (statespace.Result, error) {
		if opt.OnComplete != nil {
			miss(true)
			return cold(g, opt)
		}
		exact, structural := analysisKey(g, opt)
		budget := opt.MaxStates
		if budget == 0 {
			budget = statespace.DefaultMaxStates
		}
		var scaled, bailed bool
		v, joined, err := c.Do(ctx, exact, func() (any, error) {
			if prior := c.latest(structural); prior != nil {
				res, ok, bail := prior.scale(g, opt.ReferenceActor, budget)
				if ok {
					scaled = true
					return newMemo(structural, g, opt, res), nil
				}
				bailed = bail
			}
			r, err := cold(g, opt)
			if err != nil {
				return nil, err
			}
			return newMemo(structural, g, opt, r), nil
		})
		if err != nil {
			var pe *PanicError
			if joined && !errors.As(err, &pe) {
				// The leader's cancellation or budget is not this caller's;
				// its panic would be.
				miss(false)
				return cold(g, opt)
			}
			miss(bailed)
			return statespace.Result{}, err
		}
		m := v.(*memo)
		switch {
		case scaled:
			warm.Scaled.Add(1)
		case !joined:
			miss(bailed)
		case m.res.StatesExplored >= budget || m.tiles != nil && !sameTiles(m.tiles, opt.Schedules):
			// n cached states fit only budgets admitting n inserts plus
			// the terminating revisit probe; a deadlock report names the
			// tiles, which the key leaves out.
			miss(true)
			return cold(g, opt)
		default:
			warm.Exact.Add(1)
		}
		return copyResult(m.res), nil
	}
}

// latest returns the newest cached exploration with the given structure.
func (c *Cache) latest(structural [sha256.Size]byte) *memo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.structs[structural]
}

// scale attempts the scaled tier for g. It returns (result, true, _) on
// success and (_, false, bailed) otherwise, where bailed marks reuse
// refused for soundness rather than plainly unrelated WCETs.
func (m *memo) scale(g *sdf.Graph, ref sdf.ActorID, budget int) (statespace.Result, bool, bool) {
	if m.res.StatesExplored >= budget || m.res.Deadlocked {
		// A deadlock report embeds names and times; the scaling proof
		// does not cover report text.
		return statespace.Result{}, false, true
	}
	// The factor p/q comes from the first nonzero WCET pair; every pair
	// is then verified by cross-multiplication, new*q == old*p, with
	// zeros pairing with zeros. Bail rather than risk int64 overflow.
	const overflowBound = 1 << 31
	var p, q int64
	for i, a := range g.Actors() {
		oldW, newW := m.wcets[i], a.ExecTime
		if oldW >= overflowBound || newW >= overflowBound {
			return statespace.Result{}, false, true
		}
		if (oldW == 0) != (newW == 0) {
			return statespace.Result{}, false, false
		}
		if oldW == 0 {
			continue
		}
		if p == 0 {
			d := gcd(newW, oldW)
			p, q = newW/d, oldW/d
			continue
		}
		if newW*q != oldW*p {
			return statespace.Result{}, false, false
		}
	}
	if p == 0 {
		p, q = 1, 1 // all WCETs zero on both sides
	}
	// Every event time of a self-timed execution is a sum of WCETs, so
	// period and transient scale exactly and must stay integral.
	per, tr := m.res.PeriodCycles, m.res.TransientCycles
	if per >= overflowBound || tr >= overflowBound || (per*p)%q != 0 || (tr*p)%q != 0 {
		return statespace.Result{}, false, true
	}
	res := copyResult(m.res)
	res.PeriodCycles = per * p / q
	res.TransientCycles = tr * p / q
	if res.PeriodCycles > 0 && res.FiringsPerPeriod > 0 {
		// Recompute from the integers as the kernel does; rescaling the
		// stored float would round differently.
		rv, err := g.RepetitionVector()
		if err != nil {
			return statespace.Result{}, false, true
		}
		res.Throughput = float64(res.FiringsPerPeriod) / float64(rv[ref]) / float64(res.PeriodCycles)
	}
	return res, true, false
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func newMemo(structural [sha256.Size]byte, g *sdf.Graph, opt statespace.Options, res statespace.Result) *memo {
	m := &memo{structural: structural, wcets: make([]int64, g.NumActors()), res: res}
	for i, a := range g.Actors() {
		m.wcets[i] = a.ExecTime
	}
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
	sum [2 * sha256.Size]byte
}

var keyers = sync.Pool{New: func() any { return &keyer{h: sha256.New()} }}

// analysisKey serializes one analysis request in a single pass over the
// graph in declaration order, structure first: actor names and
// concurrency caps; channel names, endpoints, rates and initial tokens;
// the schedules in order; the reference actor. The WCET vector follows.
// The SHA-256 of the structure is the scaled tier's index; that of the
// whole serialization is the exact key. Its raw 32 bytes cannot equal a
// hex request key.
//
// With the tile labels beside it, the key covers everything a Result
// depends on: DeadlockReport prints names and labels, and MaxTokens is
// indexed by channel ID. The labels are left out because they change
// nothing else, and bindings that differ only by a permutation of
// identical tiles (as a solver sweep visits them) then share one
// exploration; a memo with a deadlock report records its labels instead.
// MaxStates is left out too (the budget check covers it), as are the
// Interrupt and Telemetry plumbing; OnComplete bypasses the memo.
func analysisKey(g *sdf.Graph, opt statespace.Options) (exact string, structural [sha256.Size]byte) {
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
	k.h.Reset()
	k.h.Write(b)
	k.h.Sum(k.sum[:0])
	n := len(b)
	for _, a := range g.Actors() {
		b = binary.AppendVarint(b, a.ExecTime)
	}
	k.h.Write(b[n:])
	k.h.Sum(k.sum[sha256.Size:sha256.Size])
	copy(structural[:], k.sum[:sha256.Size])
	exact = string(k.sum[sha256.Size:])
	k.buf = b
	keyers.Put(k)
	return exact, structural
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
