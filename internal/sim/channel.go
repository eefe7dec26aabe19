package sim

import (
	"mamps/internal/appmodel"
	"mamps/internal/sdf"
)

// ring is a fixed-capacity FIFO over storage allocated once, when the
// simulation is built: the simulator's queues are bounded by the
// platform (link depth, NI stage, buffer capacity), so the hot loop never
// grows or re-slices them. Pushing onto a full ring is a simulator bug
// and panics rather than overwriting a queued entry.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest entry
	n    int // entries queued
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) full() bool { return r.n == len(r.buf) }

// at returns the i-th oldest entry.
func (r *ring[T]) at(i int) T {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i]
}

func (r *ring[T]) push(v T) {
	if r.full() {
		panic("sim: push onto a full ring")
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// pop removes and returns the oldest entry, zeroing its slot so the ring
// keeps no reference to a delivered token.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// wordLink is the cycle-level model of one interconnect connection: a
// word FIFO with head latency, injection rate limiting (SDM bandwidth) and
// bounded capacity (FSL FIFO depth, or in-flight plus router buffering for
// a NoC connection). Tokens travel as bursts of words; the token value is
// delivered with its last word, mirroring the (de)serialization of the
// network interface.
type wordLink struct {
	name          string
	latency       int64 // cycles from injection to visibility
	cyclesPerWord int64 // minimum spacing between injected words

	lastInject int64
	fifo       ring[wordEntry] // capacity: the link depth in words

	wordsCarried int64
}

type wordEntry struct {
	visible int64
	last    bool
	tok     appmodel.Token
}

// newWordLink returns a link ready to accept its first word immediately.
func newWordLink(name string, depth int, latency, cyclesPerWord int64) *wordLink {
	return &wordLink{
		name:          name,
		latency:       latency,
		cyclesPerWord: cyclesPerWord,
		lastInject:    -cyclesPerWord,
		fifo:          newRing[wordEntry](depth),
	}
}

// canInject reports whether a word can enter the link at cycle now.
func (l *wordLink) canInject(now int64) bool {
	return !l.fifo.full() && now >= l.lastInject+l.cyclesPerWord
}

// nextInjectTime returns the earliest cycle at or after now at which the
// rate limit allows another injection (capacity permitting).
func (l *wordLink) nextInjectTime(now int64) int64 {
	t := l.lastInject + l.cyclesPerWord
	if t < now {
		return now
	}
	return t
}

// inject enters one word; tok must be attached to the last word of its
// token burst.
func (l *wordLink) inject(now int64, last bool, tok appmodel.Token) {
	l.fifo.push(wordEntry{visible: now + l.latency, last: last, tok: tok})
	l.lastInject = now
	l.wordsCarried++
}

// visibleWords counts words readable at cycle now.
func (l *wordLink) visibleWords(now int64) int {
	n := 0
	for n < l.fifo.len() && l.fifo.at(n).visible <= now {
		n++
	}
	return n
}

// readWords removes the first n words and returns the token attached to
// the last one (nil unless that word completes a token).
func (l *wordLink) readWords(n int) appmodel.Token {
	var tok appmodel.Token
	for i := 0; i < n; i++ {
		if e := l.fifo.pop(); e.last {
			tok = e.tok
		}
	}
	return tok
}

// nextVisible returns the earliest future visibility time of any word not
// yet visible at now, or -1.
func (l *wordLink) nextVisible(now int64) int64 {
	for i := 0; i < l.fifo.len(); i++ {
		if v := l.fifo.at(i).visible; v > now {
			return v
		}
	}
	return -1
}

// chanState is the runtime of one application channel.
type chanState struct {
	c         *sdf.Channel
	interTile bool
	words     int // words per token

	// dstQueue holds tokens available to the consumer (deserialized, or
	// local). Producers respect capacity, the channel's buffer allocation;
	// the ring is sized to hold the initial tokens too, which may exceed
	// it.
	dstQueue ring[appmodel.Token]
	capacity int

	// link carries words for inter-tile channels (nil otherwise).
	link *wordLink

	// assembled counts words of the incoming token already drained from
	// the link by the in-progress deserialization (the words sit in the
	// destination token buffer being assembled); pending holds the token
	// value once its last word has been read.
	assembled int
	pending   appmodel.Token

	// stage is the sending network interface's output buffer: words the
	// PE (or CA) has serialized but the connection has not yet accepted.
	// It holds at most one token's words (the NI slot of the Figure 4
	// model: s1 may run one token ahead of the network handoff), so the
	// ring is sized to words.
	stage ring[stagedWord]

	tokensCarried int64
}

type stagedWord struct {
	last bool
	tok  appmodel.Token
}

// stageSpace returns the free words in the NI send stage.
func (cs *chanState) stageSpace() int {
	return cs.words - cs.stage.len()
}

// drain moves up to the remaining words of the current token from the
// link into the assembly buffer, freeing link space immediately (the
// blocking word-read of the network interface). It reports how many words
// moved and whether the token is now complete.
func (cs *chanState) drain(now int64) (moved int, complete bool) {
	need := cs.words - cs.assembled
	avail := cs.link.visibleWords(now)
	if avail > need {
		avail = need
	}
	if avail == 0 {
		return 0, false
	}
	if tok := cs.link.readWords(avail); tok != nil {
		cs.pending = tok
	}
	cs.assembled += avail
	if cs.assembled == cs.words {
		return avail, true
	}
	return avail, false
}

// completeToken finishes the in-progress deserialization, delivering the
// assembled token to the destination buffer.
func (cs *chanState) completeToken() {
	cs.dstQueue.push(cs.pending)
	cs.pending = nil
	cs.assembled = 0
	cs.tokensCarried++
}

func (cs *chanState) dstSpace() int {
	return cs.capacity - cs.dstQueue.len()
}
