// Package statespace implements exact worst-case throughput analysis of SDF
// graphs by explicit exploration of the self-timed execution state space,
// following Ghamarian et al., "Throughput Analysis of Synchronous Data Flow
// Graphs" (ACSD 2006) — the analysis at the core of the SDF3 tool set.
//
// Self-timed execution fires every actor as soon as it is ready. Because
// the execution is deterministic, the sequence of states eventually becomes
// periodic; the throughput is the number of graph iterations completed per
// clock cycle within one period.
//
// The analysis optionally enforces static-order schedules: a schedule binds
// a sequence of actor firings to a tile, and the tile executes the sequence
// cyclically, one firing at a time — exactly the lookup-table scheduler the
// MAMPS platform generates. This makes the analysis binding-aware.
//
// The exploration kernel is allocation-free in the steady state: states are
// packed into a reused byte buffer, hashed into an open-addressing table
// whose entries index an append-only state arena (collisions resolved by
// byte comparison), in-flight firings are kept in per-actor queues that are
// ordered by construction (no per-state sort), and the next event is taken
// from a monotone min-heap of completion events instead of a linear scan.
package statespace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"mamps/internal/obs"
	"mamps/internal/sdf"
)

// Schedule is a cyclic static-order schedule for one tile: the tile fires
// the listed actors in order, one complete firing at a time, wrapping
// around at the end. In a valid schedule each bound actor appears a
// multiple of its repetition-vector entry times per cycle of the list.
//
// An optional Prologue is executed once before the cyclic body: it
// expresses start-up transients such as deserializations skipped because
// initial tokens were already present in a consumer's buffer (the MAMPS
// wrapper reads only the tokens its buffer is missing, so the first pass
// over the schedule differs from the steady state).
type Schedule struct {
	Tile     string
	Prologue []sdf.ActorID
	Entries  []sdf.ActorID
}

// Options configures the analysis.
type Options struct {
	// Schedules binds actors to tiles with static-order schedules. Actors
	// that appear in no schedule fire self-timed, constrained only by
	// token availability and their MaxConcurrent bound.
	Schedules []Schedule

	// MaxStates bounds the exploration. Exceeding it returns an error;
	// this happens only for unbounded (e.g. not strongly connected,
	// unbuffered) graphs. Zero selects the default of 2^20 states.
	MaxStates int

	// Interrupt, if non-nil, aborts the exploration with ErrInterrupted
	// when the channel becomes readable (typically a context's Done
	// channel). Long-running analyses driven by the mapping service check
	// it once per explored state.
	Interrupt <-chan struct{}

	// Telemetry, if non-nil, receives the exploration's counters: sampled
	// progress (states recorded, arena bytes, table slots) every
	// telemetrySample states, and totals at termination. Nil disables
	// every publication behind a single pointer check, preserving the
	// hot loop's allocation-free guarantee.
	Telemetry *obs.ExplorerStats
}

// telemetrySample is the state-count interval between progress
// publications; a power of two so the sampling test is a mask.
const telemetrySample = 1 << 12

// ErrInterrupted is returned by Analyze when Options.Interrupt fires
// before the exploration reaches a recurrent state.
var ErrInterrupted = errors.New("statespace: analysis interrupted")

// Result reports the outcome of an analysis.
type Result struct {
	// Throughput is the exact throughput: the firings of the reference
	// actor (actor 0) within one period, its repetition-vector entry and
	// the period in cycles. Zero if deadlocked.
	Throughput sdf.Rate
	// TransientCycles is the time before the periodic phase is entered.
	TransientCycles int64
	// Deadlocked is true if execution stops with no actor able to fire.
	Deadlocked bool
	// DeadlockReport describes, for a deadlocked execution, what every
	// scheduled tile is blocked on. Empty otherwise.
	DeadlockReport string
	// StatesExplored counts the distinct states recorded during the
	// exploration. Both termination paths (recurrence and deadlock) use
	// this same definition: the number of entries in the state store.
	StatesExplored int
	// MaxTokens records the highest token count observed on each channel
	// during the exploration — the actual buffer occupancy, useful for
	// validating (and shrinking) buffer allocations.
	MaxTokens []int64
}

// DefaultMaxStates is the state budget of an Options.MaxStates of zero.
const DefaultMaxStates = 1 << 20

// refActor is the actor whose completions count iterations: its
// completion count divided by its repetition-vector entry is the
// iteration count.
const refActor sdf.ActorID = 0

// tileState is the runtime state of a scheduled tile.
type tileState struct {
	prologue []sdf.ActorID
	sched    []sdf.ActorID
	inProl   bool
	pos      int   // index of next entry to execute
	busy     bool  // a firing is in progress
	doneAt   int64 // absolute completion time of the in-progress firing
	current  sdf.ActorID
}

// currentEntry returns the actor of the tile's next schedule entry.
func (t *tileState) currentEntry() sdf.ActorID {
	if t.inProl {
		return t.prologue[t.pos]
	}
	return t.sched[t.pos]
}

// advanceEntry moves to the next schedule position.
func (t *tileState) advanceEntry() {
	t.pos++
	if t.inProl {
		if t.pos == len(t.prologue) {
			t.inProl = false
			t.pos = 0
		}
		return
	}
	if t.pos == len(t.sched) {
		t.pos = 0
	}
}

// fireQueue holds the in-flight firings of one self-timed actor as
// absolute completion times. Firings start in nondecreasing time order and
// run for a constant execution time, so the queue is sorted by
// construction — the canonical per-state ordering the old kernel obtained
// with a per-state sort falls out of insertion order.
type fireQueue struct {
	at   []int64
	head int
}

func (q *fireQueue) push(t int64) { q.at = append(q.at, t) }

func (q *fireQueue) popFront() {
	q.head++
	if q.head == len(q.at) {
		q.at = q.at[:0]
		q.head = 0
	}
}

func (q *fireQueue) pending() []int64 { return q.at[q.head:] }

// event is one firing completion: id >= 0 is a self-timed actor's dense
// index in selfTimed, id < 0 a scheduled tile (encoded as -tile-1).
type event struct {
	at int64
	id int32
}

// eventHeap is a monotone binary min-heap of completion events: pushes are
// never in the past, pops deliver the tracked minimum.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s[l].at < s[m].at {
			m = l
		}
		if r < n && s[r].at < s[m].at {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// explorer is the flattened runtime of one analysis: the graph topology
// unpacked into dense arrays, the worklists of the start fixpoint, and the
// state store. Everything is allocated once per Analyze call; the per-state
// hot path does not allocate.
type explorer struct {
	g   *sdf.Graph
	opt Options

	// Flattened topology in CSR form: actor a's input channels are
	// inCh[inIdx[a]:inIdx[a+1]] with matching consumption rates in inRate,
	// and likewise for outputs. One backing array per field keeps the hot
	// loops cache-dense and the setup allocation count constant.
	inIdx, outIdx   []int32
	inCh, outCh     []int32
	inRate, outRate []int64
	chanDst         []int32
	execTime        []int64
	maxConc         []int
	tileOf          []int // -1: self-timed
	selfTimed       []int32

	tokens    []int64
	maxTokens []int64
	tiles     []tileState

	// selfIdx maps an actor id to its dense index in selfTimed (-1 for
	// scheduled actors); queues is indexed by that dense index so the
	// state-key loop walks it contiguously.
	selfIdx     []int32
	queues      []fireQueue
	activeCount []int

	events eventHeap

	// Start-fixpoint worklists with membership flags.
	candA   []int32
	candT   []int32
	inCandA []bool
	inCandT []bool

	now            int64
	refCompletions int64
	zeroTimeErr    error

	// State-key buffers. buf's first tokPrefix bytes mirror the channel
	// token counts (two bytes per channel, kept current by consume and
	// produce), so stateKey only rebuilds the time/schedule section after
	// them. nTokBig counts channels whose token count does not fit the
	// prefix; while any are present stateKey uses the wide fallback in
	// slowBuf instead.
	buf       []byte
	tokPrefix int
	nTokBig   int
	slowBuf   []byte
	wide      []uint64 // oversized components diverted to the key's wide tail
	table     *seenTable
}

// Analyze explores the self-timed state space of g and returns its
// worst-case throughput. The graph must be consistent. Execution must be
// bounded (strongly connected graph, or buffer back-edges present, or all
// actors scheduled); otherwise the exploration aborts with an error after
// MaxStates states.
func Analyze(g *sdf.Graph, opt Options) (Result, error) {
	q, err := g.RepetitionVector()
	if err != nil {
		return Result{}, err
	}
	maxStates := opt.MaxStates
	if maxStates == 0 {
		maxStates = DefaultMaxStates
	}
	var e explorer
	if err := e.setup(g, opt); err != nil {
		return Result{}, err
	}
	e.table = getSeenTable(e.keyHint())
	defer e.table.release()

	for states := 0; states < maxStates; states++ {
		if e.zeroTimeErr != nil {
			return Result{}, e.zeroTimeErr
		}
		if opt.Interrupt != nil {
			select {
			case <-opt.Interrupt:
				e.publishFinal(opt.Telemetry, false, true)
				return Result{}, ErrInterrupted
			default:
			}
		}
		if tel := opt.Telemetry; tel != nil && states&(telemetrySample-1) == 0 {
			e.publishProgress(tel)
		}
		key := e.stateKey()
		h := e.table.hash(key)
		if v, ok := e.table.lookupOrInsert(h, key, visit{time: e.now, completions: e.refCompletions}); ok {
			period := e.now - v.time
			firings := e.refCompletions - v.completions
			res := Result{
				TransientCycles: v.time,
				StatesExplored:  e.table.size(),
				MaxTokens:       e.maxTokens,
			}
			if period > 0 && firings > 0 {
				res.Throughput = sdf.Rate{Firings: firings, Q: q[refActor], Period: period}
			}
			if firings == 0 {
				// Recurrent state with no progress: deadlock (all
				// remaining structure is stalled).
				res.Deadlocked = true
			}
			e.publishFinal(opt.Telemetry, res.Deadlocked, false)
			return res, nil
		}

		// Advance to the next event.
		if len(e.events) == 0 {
			// Nothing in flight and nothing could start: deadlock.
			e.publishFinal(opt.Telemetry, true, false)
			return Result{Deadlocked: true, DeadlockReport: e.deadlockReport(), StatesExplored: e.table.size(), TransientCycles: e.now, MaxTokens: e.maxTokens}, nil
		}
		e.now = e.events[0].at
		e.finishZero()
	}
	return Result{}, &BudgetError{Graph: g.Name, MaxStates: maxStates}
}

// BudgetError is the error Analyze returns when an exploration exceeds
// its state budget (Options.MaxStates) without reaching a recurrent
// state. The budget is the caller's: a larger one may succeed.
type BudgetError struct {
	Graph     string
	MaxStates int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("statespace: graph %q exceeded %d states (unbounded execution?)", e.Graph, e.MaxStates)
}

// keyHint estimates the packed-key length for store pre-sizing.
func (e *explorer) keyHint() int {
	return e.tokPrefix + 2*(2*len(e.tiles)+2*len(e.selfTimed)) + 1
}

// deadlockReport describes, for a deadlocked execution, what every
// scheduled tile is blocked on.
func (e *explorer) deadlockReport() string {
	var rep strings.Builder
	for ti, t := range e.tiles {
		a := e.g.Actor(t.currentEntry())
		fmt.Fprintf(&rep, "tile %q pos %d blocked on %q:", e.opt.Schedules[ti].Tile, t.pos, a.Name)
		for _, cid := range a.In() {
			c := e.g.Channel(cid)
			if e.tokens[cid] < int64(c.DstRate) {
				fmt.Fprintf(&rep, " %s(%d/%d)", c.Name, e.tokens[cid], c.DstRate)
			}
		}
		rep.WriteString("\n")
	}
	return rep.String()
}

// setup flattens the graph and schedules into the dense explorer runtime
// and runs the start fixpoint to the first stable instant. It does not
// create the state store. A method on a caller-owned value (rather than a
// constructor) so Analyze keeps its explorer on the stack.
func (e *explorer) setup(g *sdf.Graph, opt Options) error {
	*e = explorer{g: g, opt: opt}

	// Assign actors to tiles.
	e.tileOf = make([]int, g.NumActors())
	for i := range e.tileOf {
		e.tileOf[i] = -1
	}
	e.tiles = make([]tileState, len(opt.Schedules))
	for ti, s := range opt.Schedules {
		if len(s.Entries) == 0 {
			return fmt.Errorf("statespace: empty schedule for tile %q", s.Tile)
		}
		e.tiles[ti] = tileState{
			prologue: s.Prologue,
			sched:    s.Entries,
			inProl:   len(s.Prologue) > 0,
		}
		for _, a := range append(append([]sdf.ActorID(nil), s.Prologue...), s.Entries...) {
			if int(a) >= g.NumActors() {
				return fmt.Errorf("statespace: schedule for tile %q names unknown actor %d", s.Tile, a)
			}
			if e.tileOf[a] != -1 && e.tileOf[a] != ti {
				return fmt.Errorf("statespace: actor %q scheduled on two tiles", g.Actor(a).Name)
			}
			e.tileOf[a] = ti
		}
	}

	// Flatten the topology into dense CSR arrays: the hot path never
	// touches graph objects.
	n := g.NumActors()
	e.inIdx = make([]int32, n+1)
	e.outIdx = make([]int32, n+1)
	e.execTime = make([]int64, n)
	e.maxConc = make([]int, n)
	nc := g.NumChannels()
	e.inCh = make([]int32, 0, nc)
	e.outCh = make([]int32, 0, nc)
	e.inRate = make([]int64, 0, nc)
	e.outRate = make([]int64, 0, nc)
	for _, a := range g.Actors() {
		e.execTime[a.ID] = a.ExecTime
		e.maxConc[a.ID] = a.MaxConcurrent
		e.inIdx[a.ID] = int32(len(e.inCh))
		for _, cid := range a.In() {
			e.inCh = append(e.inCh, int32(cid))
			e.inRate = append(e.inRate, int64(g.Channel(cid).DstRate))
		}
		e.outIdx[a.ID] = int32(len(e.outCh))
		for _, cid := range a.Out() {
			e.outCh = append(e.outCh, int32(cid))
			e.outRate = append(e.outRate, int64(g.Channel(cid).SrcRate))
		}
		if e.tileOf[a.ID] == -1 {
			e.selfTimed = append(e.selfTimed, int32(a.ID))
		}
	}
	e.inIdx[n] = int32(len(e.inCh))
	e.outIdx[n] = int32(len(e.outCh))
	e.chanDst = make([]int32, g.NumChannels())
	e.tokens = make([]int64, g.NumChannels())
	e.maxTokens = make([]int64, g.NumChannels())
	for _, c := range g.Channels() {
		e.chanDst[c.ID] = int32(c.Dst)
		e.tokens[c.ID] = int64(c.InitialTokens)
		e.maxTokens[c.ID] = e.tokens[c.ID]
	}

	e.selfIdx = make([]int32, n)
	for i := range e.selfIdx {
		e.selfIdx[i] = -1
	}
	for si, a := range e.selfTimed {
		e.selfIdx[a] = int32(si)
	}
	e.queues = make([]fireQueue, len(e.selfTimed))
	e.activeCount = make([]int, n)
	e.inCandA = make([]bool, n)
	e.inCandT = make([]bool, len(e.tiles))
	e.tokPrefix = 2 * len(e.tokens)
	e.buf = make([]byte, e.tokPrefix+512)
	for ch, tk := range e.tokens {
		e.setTok(int32(ch), 0, tk)
	}

	// Seed the start fixpoint with everything, then run to the first
	// stable instant.
	for _, a := range e.selfTimed {
		e.pushActorCand(a)
	}
	for ti := range e.tiles {
		e.pushTileCand(ti)
	}
	e.startAll()
	e.finishZero()
	return nil
}

// publishProgress mirrors the exploration's current sizes into the
// telemetry gauges; called at a sampled interval so the hot loop's cost
// is one pointer check per state.
func (e *explorer) publishProgress(tel *obs.ExplorerStats) {
	tel.States.Store(int64(e.table.size()))
	tel.ArenaBytes.Store(int64(len(e.table.arena)))
	tel.TableSlots.Store(int64(len(e.table.slots)))
}

// publishFinal records a terminated exploration: the last progress
// sample plus the per-outcome counters. Interrupted explorations do not
// count as completed analyses.
func (e *explorer) publishFinal(tel *obs.ExplorerStats, deadlocked, interrupted bool) {
	if tel == nil {
		return
	}
	e.publishProgress(tel)
	tel.StatesTotal.Add(int64(e.table.size()))
	if interrupted {
		tel.Interrupted.Add(1)
		return
	}
	tel.Analyses.Add(1)
	if deadlocked {
		tel.Deadlocks.Add(1)
	}
}

func (e *explorer) pushActorCand(a int32) {
	if !e.inCandA[a] {
		e.inCandA[a] = true
		e.candA = append(e.candA, a)
	}
}

func (e *explorer) pushTileCand(ti int) {
	if !e.inCandT[ti] {
		e.inCandT[ti] = true
		e.candT = append(e.candT, int32(ti))
	}
}

func (e *explorer) ready(a int32) bool {
	for i := e.inIdx[a]; i < e.inIdx[a+1]; i++ {
		if e.tokens[e.inCh[i]] < e.inRate[i] {
			return false
		}
	}
	return true
}

func (e *explorer) consume(a int32) {
	for i := e.inIdx[a]; i < e.inIdx[a+1]; i++ {
		ch := e.inCh[i]
		old := e.tokens[ch]
		v := old - e.inRate[i]
		e.tokens[ch] = v
		e.setTok(ch, old, v)
	}
}

// produce delivers one firing's output tokens and wakes the consumers.
func (e *explorer) produce(a int32) {
	for i := e.outIdx[a]; i < e.outIdx[a+1]; i++ {
		cid := e.outCh[i]
		old := e.tokens[cid]
		tk := old + e.outRate[i]
		e.tokens[cid] = tk
		e.setTok(cid, old, tk)
		if tk > e.maxTokens[cid] {
			e.maxTokens[cid] = tk
		}
		dst := e.chanDst[cid]
		if t := e.tileOf[dst]; t >= 0 {
			e.pushTileCand(t)
		} else {
			e.pushActorCand(dst)
		}
	}
}

// setTok mirrors a channel's new token count into the key buffer's fixed
// two-byte prefix. Counts that do not fit are tracked via nTokBig, which
// switches stateKey to the wide fallback encoding while any are present.
func (e *explorer) setTok(ch int32, old, v int64) {
	if old >= 0xFFFF || v >= 0xFFFF {
		e.setTokWide(ch, old, v)
		return
	}
	binary.LittleEndian.PutUint16(e.buf[2*ch:], uint16(v))
}

// setTokWide is the overflow path of setTok, split out so the common path
// stays within the inlining budget.
func (e *explorer) setTokWide(ch int32, old, v int64) {
	if old < 0xFFFF && v >= 0xFFFF {
		e.nTokBig++
	} else if old >= 0xFFFF && v < 0xFFFF {
		e.nTokBig--
	}
	if v < 0xFFFF {
		binary.LittleEndian.PutUint16(e.buf[2*ch:], uint16(v))
	}
}

// startAll runs the start fixpoint over the candidate worklists: actors and
// tiles whose inputs changed (or that just completed) are re-checked, and
// every firing that can begin at the current instant does. Starting a
// firing only removes tokens, so it never enables another start — a single
// pass over the worklists reaches the fixpoint.
func (e *explorer) startAll() {
	for len(e.candT) > 0 || len(e.candA) > 0 {
		for len(e.candT) > 0 {
			ti := int(e.candT[len(e.candT)-1])
			e.candT = e.candT[:len(e.candT)-1]
			e.inCandT[ti] = false
			t := &e.tiles[ti]
			if t.busy {
				continue
			}
			a := int32(t.currentEntry())
			if e.ready(a) {
				e.consume(a)
				t.busy = true
				t.current = sdf.ActorID(a)
				t.doneAt = e.now + e.execTime[a]
				e.events.push(event{at: t.doneAt, id: int32(-ti - 1)})
			}
		}
		for len(e.candA) > 0 {
			a := e.candA[len(e.candA)-1]
			e.candA = e.candA[:len(e.candA)-1]
			e.inCandA[a] = false
			for e.ready(a) && (e.maxConc[a] == 0 || e.activeCount[a] < e.maxConc[a]) {
				e.consume(a)
				at := e.now + e.execTime[a]
				e.queues[e.selfIdx[a]].push(at)
				e.activeCount[a]++
				e.events.push(event{at: at, id: e.selfIdx[a]})
			}
		}
	}
}

// finishZero completes every firing due at the current instant and starts
// the firings those completions enable, repeating while completions keep
// occurring at this instant (zero-execution-time firings complete
// immediately and may enable others). It fails if an unbounded burst of
// zero-time firings occurs at one instant (a cycle of zero-execution-time
// actors with tokens), which indicates a modelling error.
const zeroBurstLimit = 1 << 20

func (e *explorer) finishZero() {
	burst := 0
	for {
		burst++
		if burst > zeroBurstLimit {
			e.zeroTimeErr = fmt.Errorf("statespace: graph %q has an unbounded zero-time firing loop", e.g.Name)
			return
		}
		done := false
		for len(e.events) > 0 && e.events[0].at == e.now {
			ev := e.events.pop()
			if ev.id < 0 {
				ti := int(-ev.id - 1)
				t := &e.tiles[ti]
				e.produce(int32(t.current))
				if t.current == refActor {
					e.refCompletions++
				}
				t.busy = false
				t.advanceEntry()
				e.pushTileCand(ti)
			} else {
				a := e.selfTimed[ev.id]
				e.queues[ev.id].popFront()
				e.produce(a)
				if sdf.ActorID(a) == refActor {
					e.refCompletions++
				}
				e.activeCount[a]--
				e.pushActorCand(a)
			}
			done = true
		}
		if !done {
			return
		}
		e.startAll()
	}
}

// put2 writes one state component at b[pos] as two little-endian bytes.
// Every component is non-negative (token counts, schedule positions,
// relative completion times), so no sign mapping is needed. Values at or
// above the 0xFFFF escape are diverted to the wide tail appended after the
// fixed section; since the escape markers in the fixed section pin down
// which components overflowed, the encoding stays canonical. The fixed
// width keeps the store addresses free of the serial position dependency a
// varint encoder would impose, which matters in the hottest loop of the
// exploration.
func (e *explorer) put2(b []byte, pos int, u uint64) int {
	if u >= 0xFFFF {
		u = e.escape(u)
	}
	binary.LittleEndian.PutUint16(b[pos:], uint16(u))
	return pos + 2
}

// escape records an oversized component for the wide tail and returns the
// escape marker; split out of put2 to keep put2 within the inlining budget.
func (e *explorer) escape(u uint64) uint64 {
	e.wide = append(e.wide, u)
	return 0xFFFF
}

// Key mode bytes: every key's final byte names its encoding, so keys from
// the narrow and wide encoders can never collide.
const (
	keyModeNarrow = 0x00
	keyModeWide   = 0x01
)

// stateKey serializes the current state: channel token counts, tile
// schedule positions with remaining execution times, and the in-flight
// firings of every self-timed actor. The per-actor queues are ordered by
// construction, so the encoding is canonical without sorting. The token
// prefix of buf is already current (maintained by consume/produce); only
// the time/schedule section after it is rebuilt, as four fixed bytes per
// component plus a wide tail for rare oversized values. The choice between
// this encoder and wideKey depends only on the state itself, keeping keys
// canonical.
func (e *explorer) stateKey() []byte {
	if e.nTokBig > 0 {
		return e.wideKey()
	}
	// Worst case: two fixed plus eight tail bytes per time component,
	// one mode byte.
	need := e.tokPrefix + 10*(2*len(e.tiles)+len(e.selfTimed)+len(e.events)+1)
	if len(e.buf) < need {
		nb := make([]byte, 2*need)
		copy(nb, e.buf[:e.tokPrefix])
		e.buf = nb
	}
	b := e.buf
	e.wide = e.wide[:0]
	pos := e.tokPrefix
	now := e.now
	for ti := range e.tiles {
		t := &e.tiles[ti]
		u := uint64(t.pos) << 1
		if t.inProl {
			u |= 1
		}
		pos = e.put2(b, pos, u)
		if t.busy {
			pos = e.put2(b, pos, uint64(t.doneAt-now+1))
		} else {
			pos = e.put2(b, pos, 0)
		}
	}
	for si := range e.queues {
		q := &e.queues[si]
		pos = e.put2(b, pos, uint64(len(q.at)-q.head))
		for i := q.head; i < len(q.at); i++ {
			pos = e.put2(b, pos, uint64(q.at[i]-now))
		}
	}
	for _, u := range e.wide {
		binary.LittleEndian.PutUint64(b[pos:], u)
		pos += 8
	}
	b[pos] = keyModeNarrow
	return b[:pos+1]
}

// wideKey is the fallback encoding used while any token count exceeds the
// two-byte prefix: every component is eight little-endian bytes, no
// escapes.
func (e *explorer) wideKey() []byte {
	need := 8*(len(e.tokens)+2*len(e.tiles)+len(e.selfTimed)+len(e.events)) + 1
	if cap(e.slowBuf) < need {
		e.slowBuf = make([]byte, 2*need)
	}
	b := e.slowBuf[:cap(e.slowBuf)]
	pos := 0
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[pos:], v)
		pos += 8
	}
	now := e.now
	for _, tk := range e.tokens {
		put(uint64(tk))
	}
	for ti := range e.tiles {
		t := &e.tiles[ti]
		u := uint64(t.pos) << 1
		if t.inProl {
			u |= 1
		}
		put(u)
		if t.busy {
			put(uint64(t.doneAt - now + 1))
		} else {
			put(0)
		}
	}
	for si := range e.queues {
		q := &e.queues[si]
		put(uint64(len(q.at) - q.head))
		for i := q.head; i < len(q.at); i++ {
			put(uint64(q.at[i] - now))
		}
	}
	b[pos] = keyModeWide
	return b[:pos+1]
}

// Throughput is a convenience wrapper returning only the throughput of the
// pure self-timed execution (no schedules).
func Throughput(g *sdf.Graph) (float64, error) {
	r, err := Analyze(g, Options{})
	if err != nil {
		return 0, err
	}
	return r.Throughput.Float(), nil
}
