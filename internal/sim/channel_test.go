package sim

import (
	"slices"
	"testing"

	"mamps/internal/appmodel"
	"mamps/internal/sdf"
)

func TestWordLinkLatencyAndOrder(t *testing.T) {
	l := newWordLink("l", 4, 3, 1)
	if !l.canInject(0) {
		t.Fatal("fresh link should accept")
	}
	l.inject(0, false, nil)
	l.inject(1, true, "tok")
	if l.visibleWords(2) != 0 {
		t.Fatal("words visible too early")
	}
	if l.visibleWords(3) != 1 {
		t.Fatal("first word should be visible at 3")
	}
	if l.visibleWords(4) != 2 {
		t.Fatal("both words visible at 4")
	}
	if nv := l.nextVisible(3); nv != 4 {
		t.Fatalf("nextVisible = %d, want 4", nv)
	}
	tok := l.readWords(2)
	if tok != "tok" {
		t.Fatalf("token = %v", tok)
	}
	if l.wordsCarried != 2 {
		t.Fatalf("wordsCarried = %d", l.wordsCarried)
	}
	if nv := l.nextVisible(0); nv != -1 {
		t.Fatalf("nextVisible on empty = %d", nv)
	}
}

func TestWordLinkRateLimit(t *testing.T) {
	l := newWordLink("l", 8, 1, 4)
	l.inject(0, false, nil)
	if l.canInject(3) {
		t.Fatal("rate limit should forbid injection at 3")
	}
	if !l.canInject(4) {
		t.Fatal("injection at 4 should be allowed")
	}
	if nt := l.nextInjectTime(1); nt != 4 {
		t.Fatalf("nextInjectTime = %d, want 4", nt)
	}
	if nt := l.nextInjectTime(10); nt != 10 {
		t.Fatalf("nextInjectTime past limit = %d, want now", nt)
	}
}

func TestWordLinkCapacity(t *testing.T) {
	l := newWordLink("l", 2, 1, 1)
	l.inject(0, false, nil)
	l.inject(1, false, nil)
	if l.canInject(10) {
		t.Fatal("full link should refuse")
	}
	l.readWords(1)
	if !l.canInject(10) {
		t.Fatal("drained link should accept")
	}
}

func TestChanStateDrainAndAssembly(t *testing.T) {
	cs := &chanState{
		c:        &sdf.Channel{Name: "c", DstRate: 1},
		words:    3,
		link:     newWordLink("c", 8, 1, 1),
		dstQueue: newRing[appmodel.Token](1),
	}
	cs.link.inject(0, false, nil)
	cs.link.inject(1, false, nil)
	// Two words visible at t=2: partial drain.
	moved, complete := cs.drain(2)
	if moved != 2 || complete {
		t.Fatalf("drain = (%d,%v), want (2,false)", moved, complete)
	}
	if cs.assembled != 2 {
		t.Fatalf("assembled = %d", cs.assembled)
	}
	// Nothing more to drain yet.
	moved, complete = cs.drain(2)
	if moved != 0 || complete {
		t.Fatalf("second drain = (%d,%v)", moved, complete)
	}
	// Last word arrives with the token value.
	cs.link.inject(2, true, "payload")
	moved, complete = cs.drain(3)
	if moved != 1 || !complete {
		t.Fatalf("final drain = (%d,%v), want (1,true)", moved, complete)
	}
	cs.completeToken()
	if cs.dstQueue.len() != 1 || cs.dstQueue.at(0) != "payload" {
		t.Fatalf("dstQueue = %v", cs.dstQueue.buf)
	}
	if cs.assembled != 0 || cs.pending != nil {
		t.Fatal("assembly not reset")
	}
}

func TestChanStateStageSpace(t *testing.T) {
	cs := &chanState{words: 2, stage: newRing[stagedWord](2)}
	if cs.stageSpace() != 2 {
		t.Fatalf("stageSpace = %d", cs.stageSpace())
	}
	cs.stage.push(stagedWord{})
	cs.stage.push(stagedWord{})
	if cs.stageSpace() != 0 {
		t.Fatalf("full stageSpace = %d", cs.stageSpace())
	}
}

func TestChanStateDstSpace(t *testing.T) {
	cs := &chanState{capacity: 3, dstQueue: newRing[appmodel.Token](3)}
	cs.dstQueue.push(1)
	cs.dstQueue.push(2)
	if cs.dstSpace() != 1 {
		t.Fatalf("dstSpace = %d", cs.dstSpace())
	}
}

// TestWordLinkRingWrap drives a depth-3 link with many times its depth in
// words, over time, so the word FIFO's ring wraps repeatedly while partly
// full. After every injection and read, visibleWords, nextVisible and the
// token readWords returns must match a plain slice-shift queue.
func TestWordLinkRingWrap(t *testing.T) {
	const depth, latency = 3, 2
	l := newWordLink("l", depth, latency, 1)
	var ref []wordEntry
	check := func(now int64) {
		t.Helper()
		vis := 0
		for vis < len(ref) && ref[vis].visible <= now {
			vis++
		}
		if got := l.visibleWords(now); got != vis {
			t.Fatalf("cycle %d: visibleWords = %d, want %d", now, got, vis)
		}
		nv := int64(-1)
		if vis < len(ref) {
			nv = ref[vis].visible
		}
		if got := l.nextVisible(now); got != nv {
			t.Fatalf("cycle %d: nextVisible = %d, want %d", now, got, nv)
		}
	}
	seq := 0
	for now := int64(0); now < 60; now++ {
		if l.canInject(now) {
			// Tokens of two words: the value rides on the second.
			last := seq%2 == 1
			var tok appmodel.Token
			if last {
				tok = seq
			}
			l.inject(now, last, tok)
			ref = append(ref, wordEntry{visible: now + latency, last: last, tok: tok})
			seq++
		} else if len(ref) < depth {
			t.Fatalf("cycle %d: link with %d words refused an injection", now, len(ref))
		}
		check(now)
		// Read one, two or three visible words on alternate cycles, so the
		// head lands on every slot of the ring.
		n := min(l.visibleWords(now), int(now%3)+1)
		if now%2 == 0 || n == 0 {
			continue
		}
		var want appmodel.Token
		for _, e := range ref[:n] {
			if e.last {
				want = e.tok
			}
		}
		ref = ref[n:]
		if got := l.readWords(n); got != want {
			t.Fatalf("cycle %d: readWords(%d) = %v, want %v", now, n, got, want)
		}
		check(now)
	}
	if l.wordsCarried < 5*depth {
		t.Fatalf("only %d words carried: the ring did not wrap", l.wordsCarried)
	}
}

// TestStageRingWrap pushes and pops NI-stage words across the end of the
// stage's ring: the words leave in order, stageSpace tracks the queued
// count, and a popped slot no longer holds its token.
func TestStageRingWrap(t *testing.T) {
	cs := &chanState{words: 3, stage: newRing[stagedWord](3)}
	next, out := 0, 0
	push := func() {
		cs.stage.push(stagedWord{last: true, tok: next})
		next++
	}
	pop := func() {
		t.Helper()
		if w := cs.stage.pop(); w.tok != out || !w.last {
			t.Fatalf("popped %+v, want token %d", w, out)
		}
		out++
	}
	for round := 0; round < 7; round++ {
		for cs.stageSpace() > 0 {
			push()
		}
		if cs.stage.len() != 3 || !cs.stage.full() {
			t.Fatalf("round %d: stage holds %d words, want 3", round, cs.stage.len())
		}
		// Pop one or two, so the head moves to a different slot each round.
		pop()
		if round%2 == 0 {
			pop()
		}
		if got, want := cs.stageSpace(), 3-cs.stage.len(); got != want {
			t.Fatalf("round %d: stageSpace = %d, want %d", round, got, want)
		}
	}
	for cs.stage.len() > 0 {
		pop()
	}
	if out != next || next < 4*3 {
		t.Fatalf("popped %d of %d words", out, next)
	}
	for i, w := range cs.stage.buf {
		if w.tok != nil {
			t.Fatalf("slot %d still holds token %v after its pop", i, w.tok)
		}
	}
}

func TestRingPushFullPanics(t *testing.T) {
	r := newRing[int](1)
	r.push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("push onto a full ring did not panic")
		}
	}()
	r.push(2)
}

// TestBitsetNext walks a ready set spanning three words: next finds set
// bits in index order across word boundaries, and a bit set ahead of the
// walk during it is found by the same walk, one behind it is not.
func TestBitsetNext(t *testing.T) {
	b := newBitset(150)
	for _, i := range []int32{0, 63, 64, 130} {
		b.set(i)
	}
	var got []int32
	for i := b.next(0); i >= 0; i = b.next(i + 1) {
		got = append(got, i)
		if i == 63 {
			b.set(149) // ahead of the walk
			b.set(5)   // behind it
		}
		b.clear(i)
	}
	if want := []int32{0, 63, 64, 130, 149}; !slices.Equal(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
	if i := b.next(0); i != 5 {
		t.Fatalf("next walk starts at %d, want 5", i)
	}
	if i := b.next(6); i != -1 {
		t.Fatalf("next(6) = %d, want -1", i)
	}
}
