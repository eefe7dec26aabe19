package sim

import (
	"fmt"

	"mamps/internal/appmodel"
	"mamps/internal/faults"
	"mamps/internal/sdf"
)

// proc is a simulated sequential engine (a processing element executing
// its static-order schedule, or a communication-assist channel engine).
// step attempts to make progress at the current cycle and reports whether
// it did; wake is the cycle at which the proc next has work. A proc that
// reports no progress is blocked on a resource; the wake-list events of
// the procs that own that resource re-flag it when the resource changes.
// blockedOn derives the blocking reason from current state on demand — it
// is only called for deadlock reports, so the hot path never formats
// strings.
type proc interface {
	name() string
	step(now int64) (progressed bool, err error)
	wakeTime() int64
	blockedOn() string
}

type tilePhase int

const (
	phaseAcquire tilePhase = iota
	phaseExec
	phaseProduce
	phaseSerialize
)

// tileProc executes the static-order schedule of one tile: for every
// entry, it acquires the input tokens (deserializing inter-tile tokens on
// the PE when no communication assist is present), runs the actor
// implementation, and serializes the produced tokens to the interconnect.
type tileProc struct {
	sim   *Simulation
	id    int32
	tile  int
	tname string
	sched []sdf.ActorID
	pos   int

	phase tilePhase
	wake  int64

	inPort      int
	outPort     int
	tokenIdx    int
	words       int  // words still to inject for the current token
	wordCharged bool // the per-word serialization cost has been paid

	inTokens  [][]appmodel.Token
	outTokens [][]appmodel.Token

	busyCycles int64

	// failAt is the fault engine's scheduled fail-stop cycle for this
	// tile (-1: none). From that cycle on the tile executes nothing and
	// the run aborts with *faults.ErrTileFailed.
	failAt int64
}

func (p *tileProc) name() string    { return p.tname }
func (p *tileProc) wakeTime() int64 { return p.wake }

// blockedOn re-evaluates the blocking condition of the current phase.
func (p *tileProc) blockedOn() string {
	a := p.actor()
	switch p.phase {
	case phaseAcquire:
		for ip := p.inPort; ip < len(a.In()); ip++ {
			cs := p.sim.channels[a.In()[ip]]
			rate := cs.c.DstRate
			if cs.dstQueue.len() >= rate {
				continue
			}
			if !cs.interTile || p.sim.params[cs.c.ID].DstOnCA {
				return fmt.Sprintf("tokens on %s (%d/%d)", cs.c.Name, cs.dstQueue.len(), rate)
			}
			if cs.assembled == cs.words {
				return ""
			}
			return fmt.Sprintf("words on %s (%d/%d)", cs.c.Name, cs.assembled, cs.words)
		}
		for _, cid := range a.Out() {
			cs := p.sim.channels[cid]
			if !cs.interTile && cs.dstSpace() < cs.c.SrcRate {
				return fmt.Sprintf("space on %s", cs.c.Name)
			}
		}
	case phaseSerialize:
		for op := p.outPort; op < len(a.Out()); op++ {
			cid := a.Out()[op]
			cs := p.sim.channels[cid]
			if !cs.interTile {
				continue
			}
			pr := p.sim.params[cid]
			if pr.SrcOnCA {
				if op == p.outPort && p.tokenIdx < len(p.outTokens[op]) &&
					p.sim.caSer[cid].queue.full() {
					return fmt.Sprintf("CA queue of %s", cs.c.Name)
				}
				continue
			}
			if op == p.outPort && p.words >= 0 && p.wordCharged && cs.stageSpace() < 1 {
				return fmt.Sprintf("full NI stage of %s", cs.c.Name)
			}
		}
	}
	return ""
}

func (p *tileProc) actor() *sdf.Actor {
	return p.sim.graph.Actor(p.sched[p.pos])
}

// advance charges busy PE time.
func (p *tileProc) advance(now, cycles int64) {
	p.wake = now + cycles
	p.busyCycles += cycles
	p.sim.pushWake(p.id, p.wake)
}

func (p *tileProc) step(now int64) (bool, error) {
	if p.failAt >= 0 && now >= p.failAt {
		p.sim.trace("fault-failstop", p.tname, now)
		p.sim.faultEvents++
		return false, &faults.ErrTileFailed{Tile: p.tname, Cycle: p.failAt}
	}
	a := p.actor()
	switch p.phase {
	case phaseAcquire:
		return p.stepAcquire(now, a)
	case phaseExec:
		return p.stepExec(now, a)
	case phaseProduce:
		return p.stepProduce(now, a)
	case phaseSerialize:
		return p.stepSerialize(now, a)
	}
	return false, fmt.Errorf("sim: tile %s in invalid phase", p.tname)
}

// stepAcquire fills the input buffers of the current actor up to its
// consumption rates, deserializing inter-tile tokens inline when the tile
// has no communication assist.
func (p *tileProc) stepAcquire(now int64, a *sdf.Actor) (bool, error) {
	for ; p.inPort < len(a.In()); p.inPort++ {
		cs := p.sim.channels[a.In()[p.inPort]]
		rate := cs.c.DstRate
		if cs.dstQueue.len() >= rate {
			continue
		}
		if !cs.interTile || p.sim.params[cs.c.ID].DstOnCA {
			// Local tokens (or CA-filled buffers): wait for the producer.
			return false, nil
		}
		// PE deserialization: the NI receive stage (niRecvProc) drains
		// arriving words into the one-token assembly slot autonomously;
		// the PE consumes the assembled token and pays the
		// deserialization time.
		if cs.assembled == cs.words {
			cs.completeToken()
			p.sim.onCompleteToken(cs.c.ID)
			pr := p.sim.params[cs.c.ID]
			p.advance(now, pr.DeserFixed+int64(cs.words)*pr.DeserPerWord)
			p.sim.trace("deser-start", cs.c.Name, now)
			return true, nil
		}
		return false, nil
	}
	// All input buffers filled: check local output space, then consume.
	for _, cid := range a.Out() {
		cs := p.sim.channels[cid]
		if cs.interTile {
			continue
		}
		if cs.dstSpace() < cs.c.SrcRate {
			return false, nil
		}
	}
	// The firing's inputs are fresh slices every time (an implementation
	// may keep them), carved from one backing array; the capped capacity
	// keeps an append on one port from spilling into the next.
	total := 0
	for _, cid := range a.In() {
		total += p.sim.channels[cid].c.DstRate
	}
	backing := make([]appmodel.Token, total)
	p.inTokens = make([][]appmodel.Token, len(a.In()))
	for i, cid := range a.In() {
		cs := p.sim.channels[cid]
		toks := backing[:cs.c.DstRate:cs.c.DstRate]
		backing = backing[cs.c.DstRate:]
		for k := range toks {
			toks[k] = cs.dstQueue.pop()
		}
		p.inTokens[i] = toks
		p.sim.onDstConsume(cid)
	}
	p.phase = phaseExec
	return true, nil
}

// stepExec runs the actor implementation; the charged cycles become the
// firing duration.
func (p *tileProc) stepExec(now int64, a *sdf.Actor) (bool, error) {
	im := p.sim.impls[a.ID]
	p.sim.meter.Reset()
	out, err := im.Fire(&p.sim.meter, p.inTokens)
	if err != nil {
		return false, fmt.Errorf("sim: firing %q on tile %s: %w", a.Name, p.tname, err)
	}
	if len(out) != len(a.Out()) {
		return false, fmt.Errorf("sim: actor %q produced %d ports, want %d", a.Name, len(out), len(a.Out()))
	}
	cycles := p.sim.meter.Cycles()
	if p.sim.opt.CheckWCET && cycles > im.WCET {
		return false, fmt.Errorf("sim: actor %q fired with %d cycles, above its WCET %d", a.Name, cycles, im.WCET)
	}
	if e := p.sim.opt.Faults; e != nil {
		// Jitter lengthens the firing within its WCET headroom, so the
		// analysis bound built from the WCETs stays valid. The firing
		// sequence number advances even for zero draws to keep every
		// firing's stream coordinate stable.
		seq := p.sim.firingSeq[a.ID]
		p.sim.firingSeq[a.ID] = seq + 1
		if j := e.ExecJitter(a.Name, seq, im.WCET-cycles); j > 0 {
			cycles += j
			p.sim.faultEvents++
			p.sim.trace("fault-jitter", a.Name, now)
		}
	}
	p.sim.profile.Record(a.Name).Observe(p.sim.opt.Scenario, cycles)
	p.sim.trace("exec-start", a.Name, now)
	p.outTokens = out
	p.inTokens = nil
	p.advance(now, cycles)
	p.phase = phaseProduce
	return true, nil
}

// stepProduce (entered when the firing's execution time has elapsed)
// delivers local output tokens and records the completion, then moves on
// to serialization of inter-tile tokens.
func (p *tileProc) stepProduce(now int64, a *sdf.Actor) (bool, error) {
	for i, cid := range a.Out() {
		cs := p.sim.channels[cid]
		if len(p.outTokens[i]) != cs.c.SrcRate {
			return false, fmt.Errorf("sim: actor %q produced %d tokens on %q, want %d",
				a.Name, len(p.outTokens[i]), cs.c.Name, cs.c.SrcRate)
		}
		if !cs.interTile {
			for _, tok := range p.outTokens[i] {
				cs.dstQueue.push(tok)
			}
			cs.tokensCarried += int64(len(p.outTokens[i]))
			p.sim.onDstAppend(cid)
		}
	}
	if a.ID == p.sim.refActor {
		p.sim.completions = append(p.sim.completions, now)
	}
	p.sim.trace("exec-end", a.Name, now)
	p.phase = phaseSerialize
	p.outPort, p.tokenIdx, p.words = 0, 0, -1
	return true, nil
}

// stepSerialize pushes every inter-tile output token through the network
// interface: serialization time on the PE, then word injection paced by
// the connection (blocking on a full link, like the FSL write of the
// MicroBlaze). With a communication assist the tokens are handed to the
// channel's CA engine instead and the PE moves on.
func (p *tileProc) stepSerialize(now int64, a *sdf.Actor) (bool, error) {
	for ; p.outPort < len(a.Out()); p.outPort++ {
		cid := a.Out()[p.outPort]
		cs := p.sim.channels[cid]
		if !cs.interTile {
			p.tokenIdx = 0
			continue
		}
		toks := p.outTokens[p.outPort]
		pr := p.sim.params[cid]
		if pr.SrcOnCA {
			// Hand tokens to the CA serializer (bounded by the source
			// buffer).
			ca := p.sim.caSer[cid]
			for ; p.tokenIdx < len(toks); p.tokenIdx++ {
				if ca.queue.full() {
					return false, nil
				}
				ca.queue.push(toks[p.tokenIdx])
				p.sim.onCAQueueAppend(cid)
			}
			p.tokenIdx = 0
			continue
		}
		for p.tokenIdx < len(toks) {
			if p.words < 0 {
				// Start serializing the next token: fixed setup cost.
				p.advance(now, pr.SerFixed)
				p.words = cs.words
				p.wordCharged = false
				return true, nil
			}
			if !p.wordCharged {
				// Per-word serialization work on the PE; the word write
				// itself happens at the end of this interval, so compute
				// and FSL writes interleave as in the implementation.
				p.advance(now, pr.SerPerWord)
				p.wordCharged = true
				return true, nil
			}
			// Write the word into the NI send stage (blocking when the
			// stage is full: the network interface has fallen one whole
			// token behind and back-pressures the PE).
			if cs.stageSpace() < 1 {
				return false, nil
			}
			last := p.words == 1
			var tok appmodel.Token
			if last {
				tok = toks[p.tokenIdx]
			}
			cs.stage.push(stagedWord{last: last, tok: tok})
			p.sim.onStageAppend(cid)
			p.words--
			p.wordCharged = false
			if p.words == 0 {
				cs.tokensCarried++
				p.sim.trace("ser-done", cs.c.Name, now)
				p.words = -1
				p.tokenIdx++
			}
			return true, nil
		}
		p.tokenIdx = 0
	}
	// Entry complete: advance the schedule.
	p.pos = (p.pos + 1) % len(p.sched)
	p.phase = phaseAcquire
	p.inPort = 0
	p.outTokens = nil
	return true, nil
}

// niRecvProc is the receive stage of the network interface for one
// inter-tile channel: it ejects words from the connection into the
// channel's one-token assembly slot as they arrive, independent of the
// destination PE — the role of the zero-time d3 actor in the Figure 4
// model. Once the slot holds a complete token, it waits for the PE to
// consume it.
type niRecvProc struct {
	sim   *Simulation
	id    int32
	cid   sdf.ChannelID
	cname string

	wake int64
}

func (p *niRecvProc) name() string    { return "ni-recv:" + p.cname }
func (p *niRecvProc) wakeTime() int64 { return p.wake }

func (p *niRecvProc) blockedOn() string {
	cs := p.sim.channels[p.cid]
	if cs.assembled >= cs.words {
		return "assembly slot full"
	}
	return "awaiting words"
}

func (p *niRecvProc) step(now int64) (bool, error) {
	cs := p.sim.channels[p.cid]
	if cs.assembled >= cs.words {
		return false, nil
	}
	moved, _ := cs.drain(now)
	if moved == 0 {
		if nv := cs.link.nextVisible(now); nv > now {
			p.wake = nv
			p.sim.pushWake(p.id, nv)
		}
		return false, nil
	}
	p.sim.onAssembled(p.cid)
	p.sim.onLinkRead(p.cid)
	return true, nil
}

// niSendProc is the send stage of the network interface for one
// inter-tile channel: it drains the NI output stage into the connection,
// respecting the connection's capacity and injection rate, independent of
// the PE — the role of the zero-time s2/s3 actors in the Figure 4 model.
type niSendProc struct {
	sim   *Simulation
	id    int32
	cid   sdf.ChannelID
	cname string

	wake int64

	// Transient-degradation state: word number stalledWord (counted over
	// the channel's lifetime) may not be injected before cycle stallUntil.
	stalledWord int64
	stallUntil  int64
}

func (p *niSendProc) name() string    { return "ni-send:" + p.cname }
func (p *niSendProc) wakeTime() int64 { return p.wake }

func (p *niSendProc) blockedOn() string {
	cs := p.sim.channels[p.cid]
	if cs.stage.len() == 0 {
		return "idle"
	}
	if cs.link.fifo.full() {
		return "full link"
	}
	return ""
}

func (p *niSendProc) step(now int64) (bool, error) {
	cs := p.sim.channels[p.cid]
	if cs.stage.len() == 0 {
		return false, nil
	}
	if cs.link.fifo.full() {
		return false, nil
	}
	if t := cs.link.nextInjectTime(now); t > now {
		p.wake = t
		p.sim.pushWake(p.id, t)
		return false, nil
	}
	if e := p.sim.opt.Faults; e != nil {
		// Degradation windows delay the injection of individual words; the
		// word number (count over the channel's lifetime) is the stream
		// coordinate, drawn exactly once per word.
		word := cs.link.wordsCarried
		if p.stalledWord != word {
			if stall := e.WordStall(p.cname, word, now); stall > 0 {
				p.stalledWord = word
				p.stallUntil = now + stall
				p.sim.faultEvents++
				p.sim.trace("fault-stall", p.cname, now)
			}
		}
		if p.stalledWord == word && now < p.stallUntil {
			p.wake = p.stallUntil
			p.sim.pushWake(p.id, p.stallUntil)
			return false, nil
		}
	}
	w := cs.stage.pop()
	cs.link.inject(now, w.last, w.tok)
	p.sim.onStagePop(p.cid)
	p.sim.onInject(p.cid, now+cs.link.latency)
	return true, nil
}

// caSerProc is the sending half of a communication assist for one
// channel: it drains the source buffer, serializes tokens with the CA's
// timing and injects the words, concurrently with the PE.
type caSerProc struct {
	sim   *Simulation
	id    int32
	cid   sdf.ChannelID
	cname string
	queue ring[appmodel.Token] // sized to the source buffer

	wake        int64
	words       int // words left to inject (-1: need to serialize next token)
	wordCharged bool
}

func (p *caSerProc) name() string    { return "ca-ser:" + p.cname }
func (p *caSerProc) wakeTime() int64 { return p.wake }

func (p *caSerProc) blockedOn() string {
	cs := p.sim.channels[p.cid]
	if p.words < 0 && p.queue.len() == 0 {
		return "idle"
	}
	if p.words >= 0 && p.wordCharged && cs.stageSpace() < 1 {
		return "full NI stage"
	}
	return ""
}

func (p *caSerProc) step(now int64) (bool, error) {
	cs := p.sim.channels[p.cid]
	pr := p.sim.params[p.cid]
	if p.words < 0 {
		if p.queue.len() == 0 {
			return false, nil
		}
		p.wake = now + pr.SerFixed
		p.sim.pushWake(p.id, p.wake)
		p.words = cs.words
		p.wordCharged = false
		return true, nil
	}
	if !p.wordCharged {
		p.wake = now + pr.SerPerWord
		p.sim.pushWake(p.id, p.wake)
		p.wordCharged = true
		return true, nil
	}
	if cs.stageSpace() < 1 {
		return false, nil
	}
	last := p.words == 1
	var tok appmodel.Token
	if last {
		tok = p.queue.at(0)
	}
	cs.stage.push(stagedWord{last: last, tok: tok})
	p.sim.onStageAppend(p.cid)
	p.words--
	p.wordCharged = false
	if p.words == 0 {
		p.queue.pop()
		cs.tokensCarried++
		p.words = -1
		p.sim.onCAQueuePop(p.cid)
	}
	return true, nil
}

// caDeserProc is the receiving half: it assembles tokens from arriving
// words and fills the consumer's buffer, concurrently with the PE.
type caDeserProc struct {
	sim   *Simulation
	id    int32
	cid   sdf.ChannelID
	cname string

	wake int64
}

func (p *caDeserProc) name() string    { return "ca-deser:" + p.cname }
func (p *caDeserProc) wakeTime() int64 { return p.wake }

func (p *caDeserProc) blockedOn() string {
	cs := p.sim.channels[p.cid]
	if cs.dstSpace() < 1 {
		return "full destination buffer"
	}
	return "awaiting words"
}

func (p *caDeserProc) step(now int64) (bool, error) {
	cs := p.sim.channels[p.cid]
	if cs.dstSpace() < 1 {
		return false, nil
	}
	moved, complete := cs.drain(now)
	if moved > 0 {
		p.sim.onLinkRead(p.cid)
	}
	if complete {
		pr := p.sim.params[p.cid]
		// The CA needs its processing time before the next token;
		// delivering the current token at the start of that interval is
		// conservative for the consumer and keeps the engine simple.
		p.wake = now + pr.DeserFixed + int64(cs.words)*pr.DeserPerWord
		p.sim.pushWake(p.id, p.wake)
		cs.completeToken()
		p.sim.onDstAppend(p.cid)
		return true, nil
	}
	if nv := cs.link.nextVisible(now); nv > now {
		p.wake = nv
		p.sim.pushWake(p.id, nv)
	}
	return moved > 0, nil
}
