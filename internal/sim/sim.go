// Package sim is the execution platform of the reproduction: a
// cycle-level discrete-event simulator of the generated MAMPS MPSoC that
// stands in for the Virtex-6 FPGA of the paper. It executes the mapping
// exactly as the generated platform would: every tile runs its
// static-order schedule (the lookup-table scheduler), actor firings run
// the real implementation code under the cycle cost model, tokens are
// serialized into 32-bit words and move over FSL links or NoC connections
// with their latency, bandwidth and buffering, and blocking reads/writes
// provide the flow control.
//
// Because the simulator and the SDF3 analysis model are derived from the
// same platform instance, the measured throughput must meet or exceed the
// analysis bound — the central claim of the paper, asserted by the test
// suite.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"strings"

	"mamps/internal/appmodel"
	"mamps/internal/comm"
	"mamps/internal/faults"
	"mamps/internal/mapping"
	"mamps/internal/obs"
	"mamps/internal/sdf"
	"mamps/internal/wcet"
)

// Options configures a simulation run.
type Options struct {
	// Iterations is the number of completions of the reference actor to
	// simulate.
	Iterations int
	// RefActor names the actor whose completions are counted (default:
	// the last actor of the graph).
	RefActor string
	// CheckWCET aborts when a firing exceeds its implementation's WCET.
	CheckWCET bool
	// Scenario labels profile observations.
	Scenario string
	// Trace, if set, receives fine-grained simulator events (firing
	// completions, token (de)serializations, word injections) for
	// debugging and Gantt visualization.
	Trace func(event, subject string, now int64)
	// Interrupt, if non-nil, aborts Run with ErrInterrupted when the
	// channel becomes readable (typically a context's Done channel),
	// checked once per event-loop round like the statespace analysis.
	Interrupt <-chan struct{}
	// Telemetry, if non-nil, receives the run's event-loop counters
	// (proc steps, fixpoint rounds, wake-heap high-water mark, per-tile
	// busy/stall cycles), accumulated in locals and published once at
	// termination so the hot loop never touches an atomic.
	Telemetry *obs.SimStats
	// Faults, if non-nil, is the deterministic fault engine: per-firing
	// WCET jitter (bounded so no firing exceeds its WCET), transient
	// link degradation windows (extra stall cycles on word injection),
	// and tile fail-stop (the run then aborts with *faults.ErrTileFailed).
	// Fault events are emitted on Trace ("fault-jitter", "fault-stall",
	// "fault-failstop") and counted in Telemetry.
	Faults *faults.Engine
}

// MaxCycles bounds the simulated time: a run whose next event lies beyond
// it aborts as a runaway.
const MaxCycles int64 = 1 << 40

// warmup is the fraction of iterations discarded before measuring the
// long-term average throughput, per the paper's definition of throughput
// as a long-term average that excludes initialization effects.
const warmup = 0.25

// ErrInterrupted is returned by Run when Options.Interrupt fires before
// the simulation completes its iterations.
var ErrInterrupted = errors.New("sim: simulation interrupted")

// DeadlockError is returned by Run when the platform stalls: no proc can
// make progress and no future event is scheduled. Cycle is the instant
// the platform stalled at; Report describes what every engine is blocked
// on. The flow and service classify it with errors.As instead of string
// matching.
type DeadlockError struct {
	Cycle  int64
	Report string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d:\n%s", e.Cycle, e.Report)
}

// Result reports the measured execution.
type Result struct {
	// Throughput is the measured long-term average, exact: reference-actor
	// completions over the cycles they took (Q is 1). Completions count
	// graph iterations only when the reference actor's repetition-vector
	// entry is 1.
	Throughput sdf.Rate
	// Latency is the time of the first reference-actor completion: the
	// end-to-end latency of the first iteration through the pipeline,
	// including all initialization effects.
	Latency int64
	// Cycles is the total simulated time.
	Cycles int64
	// Completions holds the completion time of every reference firing.
	Completions []int64
	// Profile holds the measured execution times of all actors.
	Profile *wcet.Profile
	// TileBusy maps tile names to busy PE cycles (execution plus
	// serialization work).
	TileBusy map[string]int64
	// ChannelWords counts the 32-bit words carried per inter-tile
	// channel; ChannelTokens the tokens per channel. Used by the
	// communication-overhead experiment (Section 6.3).
	ChannelWords  map[string]int64
	ChannelTokens map[string]int64
}

// Simulation is a configured platform instance ready to run.
type Simulation struct {
	m        *mapping.Mapping
	opt      Options
	graph    *sdf.Graph
	impls    []*appmodel.Impl
	params   []comm.Params // per channel; zero for intra-tile channels
	channels []*chanState
	procs    []proc
	caSer    []*caSerProc // per channel; nil without a CA serializer
	refActor sdf.ActorID

	// Event-queue scheduling state. ready marks procs that must be
	// re-stepped at the current instant (their inputs changed, or their
	// wake time arrived); wakes is a min-heap of future wake times. The
	// per-channel index tables name the procs to flag when a channel
	// resource changes (-1: no such proc); they are the static wake lists
	// that replace the step-everything fixpoint.
	now       int64
	ready     bitset
	wakes     wakeHeap
	chDstTile []int32 // consumer tile proc per channel
	chSrcTile []int32 // producer tile proc per channel
	chNISend  []int32
	chNIRecv  []int32
	chCASer   []int32
	chCADeser []int32

	meter       wcet.Meter
	profile     *wcet.Profile
	completions []int64

	// firingSeq numbers each actor's firings from zero: the per-firing
	// coordinate of the fault engine's jitter stream. faultEvents counts
	// injected faults for the telemetry tally.
	firingSeq   []int64
	faultEvents int64
}

// wakeEntry schedules a future re-step of one proc.
type wakeEntry struct {
	at int64
	p  int32
}

// wakeHeap is a binary min-heap of future wake times.
type wakeHeap []wakeEntry

func (h *wakeHeap) push(e wakeEntry) {
	s := append(*h, e)
	*h = s
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

func (h *wakeHeap) pop() wakeEntry {
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

// bitset is the ready set: bit i marks proc i. A fixpoint pass walks it in
// index order with next, so its cost follows the number of flagged procs,
// not the number of procs.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int32)   { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int32) { b[i>>6] &^= 1 << (uint(i) & 63) }

// next returns the lowest set index at or above i, or -1. It re-reads the
// words, so a bit set above the walk's position during a pass is still
// found by that pass.
func (b bitset) next(i int32) int32 {
	w := int(i >> 6)
	if w >= len(b) {
		return -1
	}
	word := b[w] &^ (1<<(uint(i)&63) - 1)
	for word == 0 {
		if w++; w == len(b) {
			return -1
		}
		word = b[w]
	}
	return int32(w<<6 | bits.TrailingZeros64(word))
}

// pushWake schedules proc p to be re-stepped at cycle t. Times at or
// before the current instant need no heap entry: the proc's ready bit
// keeps it in the current instant's passes.
func (s *Simulation) pushWake(p int32, t int64) {
	if t > s.now {
		s.wakes.push(wakeEntry{at: t, p: p})
	}
}

// flag marks a proc for re-stepping at the current instant.
func (s *Simulation) flag(p int32) {
	if p >= 0 {
		s.ready.set(p)
	}
}

// Wake-list events: each names a channel-state change and flags exactly
// the procs whose blocking conditions read that state. The lists are
// conservative — flagging a proc that then makes no progress is harmless,
// missing one would strand it — and they are what lets Run step only the
// procs whose inputs changed.

// onDstAppend: tokens appended to the destination buffer (local produce,
// CA deserialization, or PE deserialization completing).
func (s *Simulation) onDstAppend(cid sdf.ChannelID) { s.flag(s.chDstTile[cid]) }

// onDstConsume: the consumer removed tokens from the destination buffer.
func (s *Simulation) onDstConsume(cid sdf.ChannelID) {
	s.flag(s.chSrcTile[cid])
	s.flag(s.chCADeser[cid])
}

// onCompleteToken: the assembly slot was handed to the destination buffer.
func (s *Simulation) onCompleteToken(cid sdf.ChannelID) { s.flag(s.chNIRecv[cid]) }

// onAssembled: the NI receive stage moved words into the assembly slot.
func (s *Simulation) onAssembled(cid sdf.ChannelID) { s.flag(s.chDstTile[cid]) }

// onStageAppend: a word entered the NI send stage.
func (s *Simulation) onStageAppend(cid sdf.ChannelID) { s.flag(s.chNISend[cid]) }

// onStagePop: the NI send stage handed a word to the connection.
func (s *Simulation) onStagePop(cid sdf.ChannelID) {
	s.flag(s.chSrcTile[cid])
	s.flag(s.chCASer[cid])
}

// onCAQueueAppend: the PE handed a token to the CA serializer.
func (s *Simulation) onCAQueueAppend(cid sdf.ChannelID) { s.flag(s.chCASer[cid]) }

// onCAQueuePop: the CA serializer drained a token from its queue.
func (s *Simulation) onCAQueuePop(cid sdf.ChannelID) { s.flag(s.chSrcTile[cid]) }

// onInject: a word entered the connection, becoming visible at cycle t —
// schedule the receiving engine for that instant.
func (s *Simulation) onInject(cid sdf.ChannelID, t int64) {
	if p := s.chNIRecv[cid]; p >= 0 {
		s.pushWake(p, t)
		if t <= s.now {
			s.ready.set(p)
		}
		return
	}
	if p := s.chCADeser[cid]; p >= 0 {
		s.pushWake(p, t)
		if t <= s.now {
			s.ready.set(p)
		}
	}
}

// onLinkRead: words left the connection, freeing link capacity.
func (s *Simulation) onLinkRead(cid sdf.ChannelID) { s.flag(s.chNISend[cid]) }

// New builds a simulation of the mapped application on its platform.
func New(m *mapping.Mapping, opt Options) (*Simulation, error) {
	if opt.Iterations <= 0 {
		return nil, fmt.Errorf("sim: need a positive iteration count")
	}
	g := m.App.Graph
	s := &Simulation{
		m:       m,
		opt:     opt,
		graph:   g,
		params:  make([]comm.Params, g.NumChannels()),
		profile: wcet.NewProfile(),
		caSer:   make([]*caSerProc, g.NumChannels()),
	}
	if opt.Scenario == "" {
		s.opt.Scenario = "sim"
	}

	// Reference actor.
	ref := g.Actor(sdf.ActorID(g.NumActors() - 1))
	if opt.RefActor != "" {
		ref = g.ActorByName(opt.RefActor)
		if ref == nil {
			return nil, fmt.Errorf("sim: unknown reference actor %q", opt.RefActor)
		}
	}
	s.refActor = ref.ID

	// Implementations per actor for the tile's PE type.
	s.impls = make([]*appmodel.Impl, g.NumActors())
	for _, a := range g.Actors() {
		tile := m.Platform.Tiles[m.TileOf[a.ID]]
		im := m.App.ImplFor(a.ID, tile.PE)
		if im == nil || im.Fire == nil {
			return nil, fmt.Errorf("sim: actor %q has no executable implementation for %q", a.Name, tile.PE)
		}
		s.impls[a.ID] = im
	}
	if err := m.App.InitAll(); err != nil {
		return nil, err
	}

	// Channels.
	s.channels = make([]*chanState, g.NumChannels())
	for _, c := range g.Channels() {
		cs := &chanState{
			c:         c,
			interTile: m.InterTile(c),
			words:     c.Words(),
			capacity:  m.Buffers[c.ID],
		}
		if c.IsSelfLoop() {
			cs.capacity = c.InitialTokens + c.SrcRate
		}
		if cs.capacity < c.DstRate {
			cs.capacity = c.DstRate
		}
		cs.dstQueue = newRing[appmodel.Token](max(cs.capacity, c.InitialTokens))
		if cs.interTile {
			p, ok := m.CommParams[c.ID]
			if !ok {
				return nil, fmt.Errorf("sim: inter-tile channel %q has no communication parameters", c.Name)
			}
			s.params[c.ID] = p
			cs.link = newWordLink(c.Name, p.InFlight+p.NetBuffer, p.Latency, p.CyclesPerWord)
			cs.stage = newRing[stagedWord](cs.words)
		}
		s.channels[c.ID] = cs
	}

	// Initial tokens: values from the implementations' InitTokens, placed
	// in the destination buffers (the platform's initialization code
	// writes them there before execution starts).
	for _, a := range g.Actors() {
		im := s.impls[a.ID]
		var vals [][]appmodel.Token
		if im.InitTokens != nil {
			v, err := im.InitTokens()
			if err != nil {
				return nil, fmt.Errorf("sim: initial tokens of %q: %w", a.Name, err)
			}
			vals = v
		}
		for pi, cid := range a.Out() {
			c := g.Channel(cid)
			for k := 0; k < c.InitialTokens; k++ {
				var tok appmodel.Token
				if vals != nil && pi < len(vals) && k < len(vals[pi]) {
					tok = vals[pi][k]
				}
				s.channels[cid].dstQueue.push(tok)
			}
		}
	}

	// Tile processes.
	tileIdx := make([]int32, len(m.Platform.Tiles))
	for i := range tileIdx {
		tileIdx[i] = -1
	}
	for t, tile := range m.Platform.Tiles {
		if len(m.Schedules[t]) == 0 {
			continue
		}
		tileIdx[t] = int32(len(s.procs))
		tp := &tileProc{
			sim: s, id: int32(len(s.procs)), tile: t, tname: tile.Name,
			sched: m.Schedules[t],
			words: -1, failAt: -1,
		}
		if fc, ok := opt.Faults.TileFailCycle(tile.Name); ok {
			tp.failAt = fc
		}
		s.procs = append(s.procs, tp)
	}
	// Static wake lists: for every channel, the procs to flag when its
	// buffers, stages or link change.
	fill := func(n int) []int32 {
		v := make([]int32, n)
		for i := range v {
			v[i] = -1
		}
		return v
	}
	nch := g.NumChannels()
	s.chDstTile = fill(nch)
	s.chSrcTile = fill(nch)
	s.chNISend = fill(nch)
	s.chNIRecv = fill(nch)
	s.chCASer = fill(nch)
	s.chCADeser = fill(nch)
	for _, c := range g.Channels() {
		s.chSrcTile[c.ID] = tileIdx[m.TileOf[c.Src]]
		s.chDstTile[c.ID] = tileIdx[m.TileOf[c.Dst]]
	}
	// Per-channel network-interface engines: with a CA, autonomous
	// serializer and deserializer; without, the NI receive stage that
	// fills the one-token assembly slot (the PE does the rest inline).
	for _, c := range g.Channels() {
		cs := s.channels[c.ID]
		if !cs.interTile {
			continue
		}
		p := s.params[c.ID]
		s.chNISend[c.ID] = int32(len(s.procs))
		s.procs = append(s.procs, &niSendProc{sim: s, id: int32(len(s.procs)), cid: c.ID, cname: c.Name, stalledWord: -1})
		if p.SrcOnCA {
			ser := &caSerProc{sim: s, id: int32(len(s.procs)), cid: c.ID, cname: c.Name, queue: newRing[appmodel.Token](max(1, p.SrcBuffer)), words: -1}
			s.caSer[c.ID] = ser
			s.chCASer[c.ID] = ser.id
			s.procs = append(s.procs, ser)
		}
		if p.DstOnCA {
			s.chCADeser[c.ID] = int32(len(s.procs))
			s.procs = append(s.procs, &caDeserProc{sim: s, id: int32(len(s.procs)), cid: c.ID, cname: c.Name})
		} else {
			s.chNIRecv[c.ID] = int32(len(s.procs))
			s.procs = append(s.procs, &niRecvProc{sim: s, id: int32(len(s.procs)), cid: c.ID, cname: c.Name})
		}
	}
	// Every proc is due for a first step at cycle zero.
	s.ready = newBitset(len(s.procs))
	for i := range s.procs {
		s.ready.set(int32(i))
	}
	if opt.Faults != nil {
		s.firingSeq = make([]int64, g.NumActors())
		// A fail-stop is an event of its own: wake the failing tile at
		// its scheduled cycle so the failure is detected at exactly that
		// instant even when the tile is blocked there.
		for _, p := range s.procs {
			if tp, ok := p.(*tileProc); ok && tp.failAt > 0 {
				s.pushWake(tp.id, tp.failAt)
			}
		}
	}
	return s, nil
}

// Run executes the simulation to completion.
//
// The loop is event-driven: at every instant only the procs in the ready
// set are stepped, in proc-index order, repeating until a pass makes no
// progress. A proc flagged during a pass is stepped in that pass if its
// index lies ahead of the walk, in the next pass otherwise. A proc that
// reports no progress is blocked on a resource and leaves the ready set;
// the wake-list events raised by the other procs' steps put it back
// exactly when that resource changes. A proc busy until a later cycle
// leaves it too: every step that sets a future wake time also pushes that
// time onto the wake heap, which puts the proc back at that instant. Time
// then jumps to the earliest entry of the wake heap — the next timed
// completion or word arrival — instead of rescanning every proc and link.
func (s *Simulation) Run() (*Result, error) {
	var t simTally
	res, err := s.runLoop(&t)
	if st := s.opt.Telemetry; st != nil {
		s.publishTelemetry(st, &t)
	}
	return res, err
}

// simTally accumulates the event-loop counters of one run in plain
// locals; Run publishes them into Options.Telemetry at termination.
type simTally struct {
	steps   int64
	rounds  int64
	maxHeap int
}

// publishTelemetry flushes a finished (or aborted) run's tally and the
// per-tile busy/stall split into the telemetry counters.
func (s *Simulation) publishTelemetry(st *obs.SimStats, t *simTally) {
	st.Runs.Add(1)
	st.Steps.Add(t.steps)
	st.Rounds.Add(t.rounds)
	st.MaxWakeHeap.Max(int64(t.maxHeap))
	st.FaultEvents.Add(s.faultEvents)
	for _, p := range s.procs {
		if tp, ok := p.(*tileProc); ok {
			st.BusyCycles.Add(tp.busyCycles)
			if stall := s.now - tp.busyCycles; stall > 0 {
				st.StallCycles.Add(stall)
			}
		}
	}
}

func (s *Simulation) runLoop(t *simTally) (*Result, error) {
	now := s.now
	target := s.opt.Iterations
	for len(s.completions) < target {
		if s.opt.Interrupt != nil {
			select {
			case <-s.opt.Interrupt:
				return nil, ErrInterrupted
			default:
			}
		}
		// Run every ready proc to a fixpoint at the current time.
		for {
			t.rounds++
			progressed := false
			for i := s.ready.next(0); i >= 0; i = s.ready.next(i + 1) {
				p := s.procs[i]
				if p.wakeTime() > now {
					s.ready.clear(i)
					continue
				}
				t.steps++
				moved, err := p.step(now)
				if err != nil {
					return nil, err
				}
				if moved {
					progressed = true
				} else {
					s.ready.clear(i)
				}
				if len(s.completions) >= target {
					break
				}
			}
			if !progressed || len(s.completions) >= target {
				break
			}
		}
		if len(s.completions) >= target {
			break
		}
		// Advance to the next event.
		if len(s.wakes) == 0 {
			return nil, &DeadlockError{Cycle: now, Report: s.deadlockReport(now)}
		}
		if len(s.wakes) > t.maxHeap {
			t.maxHeap = len(s.wakes)
		}
		next := s.wakes[0].at
		if next > MaxCycles {
			return nil, fmt.Errorf("sim: exceeded %d cycles after %d iterations", MaxCycles, len(s.completions))
		}
		now = next
		s.now = now
		for len(s.wakes) > 0 && s.wakes[0].at == now {
			s.ready.set(s.wakes.pop().p)
		}
	}

	res := &Result{
		Cycles:        now,
		Completions:   s.completions,
		Profile:       s.profile,
		TileBusy:      make(map[string]int64),
		ChannelWords:  make(map[string]int64),
		ChannelTokens: make(map[string]int64),
	}
	// Long-term average throughput, skipping the warm-up prefix.
	skip := int(float64(target) * warmup)
	if skip >= target-1 {
		skip = 0
	}
	t0, t1 := s.completions[skip], s.completions[target-1]
	if t1 > t0 {
		res.Throughput = sdf.Rate{Firings: int64(target - 1 - skip), Q: 1, Period: t1 - t0}
	} else if now > 0 {
		res.Throughput = sdf.Rate{Firings: int64(target), Q: 1, Period: now}
	}
	res.Latency = s.completions[0]
	for _, p := range s.procs {
		if tp, ok := p.(*tileProc); ok {
			res.TileBusy[tp.tname] = tp.busyCycles
		}
	}
	for _, cs := range s.channels {
		if cs.link != nil {
			res.ChannelWords[cs.c.Name] = cs.link.wordsCarried
		}
		res.ChannelTokens[cs.c.Name] = cs.tokensCarried
	}
	return res, nil
}

// Now returns the current simulated time: the final cycle after a
// completed run, or the instant an aborted run (deadlock, interrupt)
// stopped at — the closing time for any still-open trace spans.
func (s *Simulation) Now() int64 { return s.now }

// deadlockReport describes what every proc is blocked on.
func (s *Simulation) deadlockReport(now int64) string {
	var b strings.Builder
	for _, p := range s.procs {
		fmt.Fprintf(&b, "  %s: %s\n", p.name(), p.blockedOn())
	}
	return b.String()
}

// Run maps and simulates in one call; a convenience for experiments.
func Run(m *mapping.Mapping, opt Options) (*Result, error) {
	s, err := New(m, opt)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// RunContext executes the simulation, aborting with ErrInterrupted when
// ctx is cancelled.
func (s *Simulation) RunContext(ctx context.Context) (*Result, error) {
	if s.opt.Interrupt == nil {
		s.opt.Interrupt = ctx.Done()
	}
	return s.Run()
}

// RunContext maps and simulates in one call under a context.
func RunContext(ctx context.Context, m *mapping.Mapping, opt Options) (*Result, error) {
	if opt.Interrupt == nil {
		opt.Interrupt = ctx.Done()
	}
	return Run(m, opt)
}

// trace emits a simulator event if tracing is enabled.
func (s *Simulation) trace(event, subject string, now int64) {
	if s.opt.Trace != nil {
		s.opt.Trace(event, subject, now)
	}
}
