// Package warm implements a content-addressed warm-start cache for
// state-space analyses. It remembers prior explorations under two keys —
// an exact key covering everything a Result can depend on, and a
// structural "near miss" key covering the trajectory shape (topology,
// rates, initial tokens, schedules) while ignoring execution times — and
// reuses prior work in three tiers:
//
//  1. Exact hit: the request is identical to a cached analysis; the stored
//     Result is returned verbatim (deep-copied).
//  2. Scaled hit: the request differs from a cached analysis only by one
//     exact rational factor applied to every WCET; the stored Result is
//     transformed arithmetically (the self-timed trajectory visits the
//     same states, all times scale by the factor).
//  3. Hint hit: the request matches a cached analysis structurally but the
//     WCETs are unrelated; the analysis runs cold but pre-sized to the
//     prior exploration's state count, avoiding state-store growth.
//
// Every tier is sound-or-cold: whenever reuse cannot be *proven* to
// reproduce the cold result bit for bit, the cache falls back to a cold
// analysis (counted as a bailout or a miss) rather than serve an
// approximation. In particular, results are never reused across different
// MaxStates budgets unless the cached exploration provably fits the
// requested budget, deadlocked results are never scaled (their reports
// embed absolute times via names and the scaling proof does not cover
// report text), and analyses with side-effecting options (OnComplete)
// bypass the cache entirely.
package warm

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"mamps/internal/obs"
	"mamps/internal/sdf"
	"mamps/internal/statespace"
)

// AnalyzeFunc is the signature of statespace.Analyze and of the analyzers
// a Cache wraps and produces.
type AnalyzeFunc func(*sdf.Graph, statespace.Options) (statespace.Result, error)

// entry is one remembered exploration.
type entry struct {
	exactKey  string
	structKey string
	wcets     []int64 // per actor, declaration order
	qRef      int64   // reference actor's repetition-vector entry
	res       statespace.Result
}

// Cache is a bounded, concurrency-safe warm-start cache. The zero value is
// not usable; use New.
type Cache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List               // of *entry, front = most recent
	exact    map[string]*list.Element // exact key -> element
	structs  map[string]*entry        // structural key -> latest entry
	stats    *obs.WarmStats
}

// New returns a cache holding at most capacity prior explorations
// (evicting least-recently-used). stats may be nil.
func New(capacity int, stats *obs.WarmStats) *Cache {
	if capacity <= 0 {
		capacity = 64
	}
	if stats == nil {
		stats = obs.NewWarmStats(nil)
	}
	return &Cache{
		capacity: capacity,
		lru:      list.New(),
		exact:    make(map[string]*list.Element),
		structs:  make(map[string]*entry),
		stats:    stats,
	}
}

// Stats exposes the cache's counters.
func (c *Cache) Stats() *obs.WarmStats { return c.stats }

// Analyzer wraps inner (typically statespace.Analyze, possibly already
// wrapped with telemetry) with the warm-start tiers. The returned function
// is safe for concurrent use if inner is.
func (c *Cache) Analyzer(inner AnalyzeFunc) AnalyzeFunc {
	return func(g *sdf.Graph, opt statespace.Options) (statespace.Result, error) {
		return c.analyze(inner, g, opt)
	}
}

func (c *Cache) analyze(inner AnalyzeFunc, g *sdf.Graph, opt statespace.Options) (statespace.Result, error) {
	if opt.OnComplete != nil {
		// Side-effecting analysis: serving it from the cache would
		// suppress the per-completion hook calls.
		c.stats.Bailouts.Add(1)
		return inner(g, opt)
	}
	exactKey := exactKey(g, opt)
	structKey := structuralKey(g, opt)
	budget := effMaxStates(opt)

	c.mu.Lock()
	if el, ok := c.exact[exactKey]; ok {
		e := el.Value.(*entry)
		// A cached exploration of n states is only known to fit budgets
		// that admit n inserts plus the terminating revisit probe.
		if e.res.StatesExplored < budget {
			c.lru.MoveToFront(el)
			res := copyResult(e.res)
			c.mu.Unlock()
			c.stats.Exact.Add(1)
			return res, nil
		}
	}
	var (
		scaled    statespace.Result
		scaledOK  bool
		hint      int
		hintOK    bool
		bailedOut bool
	)
	if e, ok := c.structs[structKey]; ok {
		scaled, scaledOK, bailedOut = scaleResult(e, g, budget)
		if !scaledOK {
			hint, hintOK = e.res.StatesExplored, true
		}
	}
	c.mu.Unlock()

	if scaledOK {
		c.stats.Scaled.Add(1)
		c.store(exactKey, structKey, g, opt, scaled)
		return copyResult(scaled), nil
	}
	if bailedOut {
		c.stats.Bailouts.Add(1)
	}
	if hintOK {
		if opt.SizeHint.States == 0 {
			opt.SizeHint.States = hint
		}
		c.stats.Hint.Add(1)
	} else {
		c.stats.Misses.Add(1)
	}
	res, err := inner(g, opt)
	if err != nil {
		return res, err
	}
	c.store(exactKey, structKey, g, opt, res)
	return res, nil
}

// store remembers a successful analysis under both keys.
func (c *Cache) store(exactKey, structKey string, g *sdf.Graph, opt statespace.Options, res statespace.Result) {
	q, err := g.RepetitionVector()
	if err != nil {
		return
	}
	actors := g.Actors()
	e := &entry{
		exactKey:  exactKey,
		structKey: structKey,
		wcets:     make([]int64, len(actors)),
		qRef:      q[opt.ReferenceActor],
		res:       copyResult(res),
	}
	for i, a := range actors {
		e.wcets[i] = a.ExecTime
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.exact[exactKey]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
	} else {
		c.exact[exactKey] = c.lru.PushFront(e)
		for c.lru.Len() > c.capacity {
			el := c.lru.Back()
			old := el.Value.(*entry)
			c.lru.Remove(el)
			delete(c.exact, old.exactKey)
			if c.structs[old.structKey] == old {
				delete(c.structs, old.structKey)
			}
		}
	}
	c.structs[structKey] = e
}

// scaleResult attempts the scaled tier: if g's WCETs equal e's WCETs times
// one exact rational p/q, the cached Result transforms arithmetically.
// Returns (result, true, _) on success; (_, false, bailed) otherwise,
// where bailed marks a structural match that had to be abandoned for
// soundness (as opposed to plainly unrelated WCETs).
func scaleResult(e *entry, g *sdf.Graph, budget int) (statespace.Result, bool, bool) {
	if e.res.StatesExplored >= budget {
		return statespace.Result{}, false, true
	}
	if e.res.Deadlocked {
		// DeadlockReport text embeds names and times; reproducing it is
		// out of scope for the scaling proof. A recurrence-detected
		// deadlock (empty report) would scale, but the tier keeps one
		// simple rule: never scale a deadlock.
		return statespace.Result{}, false, true
	}
	actors := g.Actors()
	if len(actors) != len(e.wcets) {
		return statespace.Result{}, false, false
	}
	// Find the factor p/q from the first nonzero WCET pair, then verify
	// every pair by cross-multiplication: new_i * q == old_i * p. Zeros
	// must pair with zeros. Huge WCETs could overflow the cross products;
	// bail rather than reason about 128-bit arithmetic.
	const overflowBound = 1 << 31
	var p, q int64
	for i, a := range actors {
		oldW, newW := e.wcets[i], a.ExecTime
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
		// All WCETs zero on both sides: identical timing, factor 1.
		p, q = 1, 1
	}
	// All event times in a self-timed execution are sums of WCETs, so
	// period and transient scale exactly by p/q and must stay integral;
	// anything else means the proof does not apply.
	if e.res.PeriodCycles >= overflowBound || e.res.TransientCycles >= overflowBound {
		return statespace.Result{}, false, true
	}
	if (e.res.PeriodCycles*p)%q != 0 || (e.res.TransientCycles*p)%q != 0 {
		return statespace.Result{}, false, true
	}
	res := copyResult(e.res)
	res.PeriodCycles = e.res.PeriodCycles * p / q
	res.TransientCycles = e.res.TransientCycles * p / q
	if res.PeriodCycles > 0 && res.FiringsPerPeriod > 0 {
		// Recompute from the integers exactly as the kernel does —
		// multiplying the stored float by q/p would round differently.
		res.Throughput = float64(res.FiringsPerPeriod) / float64(e.qRef) / float64(res.PeriodCycles)
	}
	return res, true, false
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func effMaxStates(opt statespace.Options) int {
	if opt.MaxStates == 0 {
		return 1 << 20 // statespace's defaultMaxStates
	}
	return opt.MaxStates
}

func copyResult(r statespace.Result) statespace.Result {
	r.MaxTokens = append([]int64(nil), r.MaxTokens...)
	return r
}

// exactKey covers everything a Result can depend on: the full graph
// including names (DeadlockReport embeds actor and tile names) in
// declaration order (MaxTokens is channel-ID-indexed), the schedules, and
// the reference actor. Deliberately excluded: MaxStates (handled by the
// budget check), SizeHint, Telemetry, Interrupt — none influence a
// successful Result.
func exactKey(g *sdf.Graph, opt statespace.Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "g:%d;", g.NumActors())
	for _, a := range g.Actors() {
		fmt.Fprintf(&b, "a:%s,%d,%d;", a.Name, a.ExecTime, a.MaxConcurrent)
	}
	for _, ch := range g.Channels() {
		fmt.Fprintf(&b, "c:%s,%d,%d,%d,%d,%d;", ch.Name, ch.Src, ch.Dst, ch.SrcRate, ch.DstRate, ch.InitialTokens)
	}
	writeSchedules(&b, opt, true)
	fmt.Fprintf(&b, "ref:%d", opt.ReferenceActor)
	return b.String()
}

// structuralKey is the "near miss" key: trajectory shape without timing.
// It combines the graph's structural digest (topology, rates, tokens,
// concurrency bounds — no WCETs, no names) with the schedule structure
// (actor orders; tile names only group the report) and the reference
// actor.
func structuralKey(g *sdf.Graph, opt statespace.Options) string {
	var b strings.Builder
	b.WriteString(g.StructuralDigest())
	writeSchedules(&b, opt, false)
	fmt.Fprintf(&b, "ref:%d", opt.ReferenceActor)
	return b.String()
}

func writeSchedules(b *strings.Builder, opt statespace.Options, names bool) {
	for _, s := range opt.Schedules {
		if names {
			fmt.Fprintf(b, "s:%s:", s.Tile)
		} else {
			b.WriteString("s:")
		}
		for _, a := range s.Prologue {
			fmt.Fprintf(b, "p%d,", a)
		}
		for _, a := range s.Entries {
			fmt.Fprintf(b, "%d,", a)
		}
		b.WriteByte(';')
	}
}
