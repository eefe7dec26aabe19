package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// traceDoc mirrors the trace_event JSON for decoding in tests.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func exportDoc(t *testing.T, tr *Trace) (string, traceDoc) {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WritePerfetto(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("exporter emitted invalid JSON:\n%s", b.String())
	}
	var doc traceDoc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return b.String(), doc
}

func TestWritePerfettoShape(t *testing.T) {
	var n int64
	tr := New(WithNow(func() int64 { n += 1500; return n }))
	s := tr.Scope("flow")
	sp := s.Begin("map", String("app", "mjpeg"))
	sp.End()
	tr.AddCycleSpan("VLD", "exec", 100, 250, Int("firing", 1))
	tr.AddCycleSpan("IDCT", "exec", 250, 400)

	out, doc := exportDoc(t, tr)

	// Every event is either metadata or a complete span, on one of the
	// two process lanes, with sane times.
	pids := map[int]bool{}
	var wallX, cycleX int
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				t.Errorf("event %d: unexpected metadata %q", i, ev.Name)
			}
			if _, ok := ev.Args["name"].(string); !ok {
				t.Errorf("event %d: metadata without name arg", i)
			}
		case "X":
			if ev.Ts < 0 || ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("event %d: bad times ts=%v dur=%v", i, ev.Ts, ev.Dur)
			}
			if ev.Tid <= 0 {
				t.Errorf("event %d: span without track tid", i)
			}
			if ev.Pid == pidWall {
				wallX++
			} else {
				cycleX++
			}
		default:
			t.Errorf("event %d: unexpected phase %q", i, ev.Ph)
		}
		if ev.Pid != pidWall && ev.Pid != pidCycles {
			t.Errorf("event %d: pid %d outside the two domains", i, ev.Pid)
		}
		pids[ev.Pid] = true
	}
	if !pids[pidWall] || !pids[pidCycles] {
		t.Error("expected events in both time domains")
	}
	if wallX != 1 || cycleX != 2 {
		t.Errorf("span counts wall=%d cycles=%d, want 1 and 2", wallX, cycleX)
	}
	// Wall nanoseconds are rendered as microseconds.
	if !strings.Contains(out, `"ts":1.5`) {
		t.Errorf("wall span start not converted to microseconds:\n%s", out)
	}
	// Cycle tracks are named after their lanes.
	for _, lane := range []string{"VLD", "IDCT", "flow"} {
		if !strings.Contains(out, fmt.Sprintf(`"name":%q`, lane)) {
			t.Errorf("missing track name %q:\n%s", lane, out)
		}
	}
}

func TestWritePerfettoOpenSpan(t *testing.T) {
	var n int64
	tr := New(WithNow(func() int64 { n += 1000; return n }))
	s := tr.Scope("flow")
	s.Begin("stuck") // never ended
	done := s.Begin("done")
	done.End()

	_, doc := exportDoc(t, tr)
	var found bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "stuck" {
			found = true
			if open, _ := ev.Args["open"].(bool); !open {
				t.Errorf("open span not flagged: %+v", ev)
			}
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Errorf("open span has no closed duration: %+v", ev)
			}
		}
	}
	if !found {
		t.Fatal("open span missing from export")
	}
}

func TestWritePerfettoNilTrace(t *testing.T) {
	var tr *Trace
	if err := tr.WritePerfetto(&bytes.Buffer{}); err == nil {
		t.Fatal("exporting a nil trace should error")
	}
}

// Concurrent recording from many scopes while the exporter snapshots —
// the DSE worker-pool pattern. Run with -race.
// TestConcurrentExportWithOpenSpans exports while every recorder holds
// a span that has NOT ended — the snapshot in mid-flight state. The
// export must stay well-formed JSON with each in-flight span flagged
// open, and ending the spans afterwards must still work. Run with -race.
func TestConcurrentExportWithOpenSpans(t *testing.T) {
	tr := New()
	const workers = 8
	open := make([]Span, workers)
	var started, release, done sync.WaitGroup
	started.Add(workers)
	release.Add(1)
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer done.Done()
			scope := tr.Scope(fmt.Sprintf("holder-%d", w))
			open[w] = scope.Begin("inflight", Int("worker", int64(w)))
			started.Done()
			release.Wait() // hold the span open across the exports
			open[w].End()
		}(w)
	}
	started.Wait()

	var exportWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		exportWG.Add(1)
		go func() {
			defer exportWG.Done()
			var b bytes.Buffer
			if err := tr.WritePerfetto(&b); err != nil {
				t.Error(err)
				return
			}
			if !json.Valid(b.Bytes()) {
				t.Error("export with open spans produced invalid JSON")
				return
			}
			var doc traceDoc
			if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
				t.Error(err)
				return
			}
			for _, ev := range doc.TraceEvents {
				if ev.Ph != "X" || ev.Name != "inflight" {
					continue
				}
				if open, _ := ev.Args["open"].(bool); !open {
					t.Errorf("in-flight span exported without open flag: %+v", ev)
				}
				if ev.Dur == nil || *ev.Dur < 0 {
					t.Errorf("in-flight span has no closed duration: %+v", ev)
				}
			}
		}()
	}
	exportWG.Wait()
	release.Done()
	done.Wait()

	// After the holders end their spans, a final export shows them closed.
	_, doc := exportDoc(t, tr)
	inflight := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "inflight" {
			inflight++
			if open, _ := ev.Args["open"].(bool); open {
				t.Errorf("ended span still flagged open: %+v", ev)
			}
		}
	}
	if inflight != workers {
		t.Fatalf("final export has %d inflight spans, want %d", inflight, workers)
	}
}

func TestConcurrentRecordingAndExport(t *testing.T) {
	tr := New()
	const workers, spansPer = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scope := tr.Scope(fmt.Sprintf("worker-%d", w))
			for i := 0; i < spansPer; i++ {
				sp := scope.Begin("evaluate", Int("i", int64(i)))
				tr.AddCycleSpan("shared", "tick", int64(i), int64(i+1))
				sp.SetAttrs(Bool("ok", true))
				sp.End()
			}
		}(w)
	}
	// Export concurrently with the recorders.
	var exportWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		exportWG.Add(1)
		go func() {
			defer exportWG.Done()
			var b bytes.Buffer
			if err := tr.WritePerfetto(&b); err != nil {
				t.Error(err)
			}
			if !json.Valid(b.Bytes()) {
				t.Error("concurrent export produced invalid JSON")
			}
		}()
	}
	wg.Wait()
	exportWG.Wait()
	if got, want := tr.SpanCount(), workers*spansPer*2; got != want {
		t.Fatalf("SpanCount = %d, want %d", got, want)
	}
	_, doc := exportDoc(t, tr)
	var spans int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans != workers*spansPer*2 {
		t.Fatalf("exported %d spans, want %d", spans, workers*spansPer*2)
	}
}

// teEvent is one trace_event entry; field order fixes the JSON layout.
type teEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writePerfettoJSON is the exporter WritePerfetto replaced, which built
// each event as a teEvent and marshalled it with encoding/json. It stays
// as the oracle WritePerfetto must match byte for byte.
func writePerfettoJSON(t *Trace, w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: cannot export a nil trace")
	}

	// Snapshot under the locks.
	type trackSnap struct {
		domain Domain
		track  string
		spans  []spanRec
	}
	t.mu.Lock()
	scopes := append([]*Scope(nil), t.scopes...)
	t.mu.Unlock()
	byKey := map[[2]string][]spanRec{}
	for _, s := range scopes {
		s.mu.Lock()
		spans := append([]spanRec(nil), s.spans...)
		s.mu.Unlock()
		for _, r := range spans {
			k := [2]string{domainName(r.domain), s.track}
			byKey[k] = append(byKey[k], r)
		}
	}
	snaps := make([]trackSnap, 0, len(byKey))
	for k, spans := range byKey {
		d := Wall
		if k[0] == domainName(Cycles) {
			d = Cycles
		}
		snaps = append(snaps, trackSnap{domain: d, track: k[1], spans: spans})
	}
	sort.Slice(snaps, func(i, j int) bool {
		if snaps[i].domain != snaps[j].domain {
			return snaps[i].domain < snaps[j].domain
		}
		return snaps[i].track < snaps[j].track
	})

	var events []teEvent
	meta := func(pid int, name string) {
		events = append(events, teEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name}})
	}
	meta(pidWall, "flow (wall clock)")
	meta(pidCycles, "platform (cycles)")
	if t.traceID != "" {
		// Tag the export with the W3C trace-id so cross-process traces
		// stitch; emitted only when set, keeping untagged goldens stable.
		events = append(events, teEvent{Name: "trace_context", Ph: "M", Pid: pidWall,
			Args: map[string]any{"traceID": t.traceID}})
	}

	tid := map[Domain]int{Wall: 0, Cycles: 0}
	for _, sn := range snaps {
		pid := pidWall
		if sn.domain == Cycles {
			pid = pidCycles
		}
		tid[sn.domain]++
		id := tid[sn.domain]
		events = append(events, teEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: id,
			Args: map[string]any{"name": sn.track}})

		// Open spans close at the track's last observed instant.
		last := int64(0)
		for _, r := range sn.spans {
			end := r.start
			if r.dur > 0 {
				end += r.dur
			}
			if end > last {
				last = end
			}
		}
		for _, r := range sn.spans {
			dur := r.dur
			open := dur < 0
			if open {
				if dur = last - r.start; dur < 0 {
					dur = 0
				}
			}
			ev := teEvent{Name: r.name, Ph: "X", Pid: pid, Tid: id,
				Ts: toMicros(r.start, sn.domain)}
			d := toMicros(dur, sn.domain)
			ev.Dur = &d
			if len(r.attrs) > 0 || open {
				ev.Args = make(map[string]any, len(r.attrs)+1)
				for _, a := range r.attrs {
					ev.Args[a.Key] = a.Val
				}
				if open {
					ev.Args["open"] = true
				}
			}
			events = append(events, ev)
		}
	}

	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// samePerfetto fails unless WritePerfetto and the encoding/json oracle
// agree: the same bytes, or both an error.
func samePerfetto(t *testing.T, tr *Trace) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := tr.WritePerfetto(&got)
	wantErr := writePerfettoJSON(tr, &want)
	switch {
	case (gotErr != nil) != (wantErr != nil):
		t.Fatalf("error = %v, oracle error = %v", gotErr, wantErr)
	case gotErr == nil && !bytes.Equal(got.Bytes(), want.Bytes()):
		t.Fatalf("export differs from encoding/json\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
}

// randomTrace records a trace with wall and cycle spans, open spans and
// attributes of every constructor's type, drawing names, keys and values
// from sets that exercise JSON escaping, float formatting and duplicate
// keys.
func randomTrace(rng *rand.Rand) *Trace {
	strs := []string{"", "map", "a\"b", "back\\slash", "<tag>&amp;", "tab\tnl\ncr\r", "\b\f\x00\x1f\x7f",
		"caf\u00e9", "\u2028\u2029", "bad\xffutf8\xc3", "\U0001F600", "\ufffd"}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e300,
		-2.5e-9, 123456.789, 1.0 / 3, math.MaxFloat64, math.SmallestNonzeroFloat64}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	value := func() Attr {
		k := pick([]string{"states", "throughput", "graph", "open", "a", "<k>", "caf\u00e9", ""})
		switch rng.Intn(5) {
		case 0:
			return String(k, pick(strs))
		case 1:
			return Int(k, rng.Int63()-rng.Int63())
		case 2:
			return Float(k, floats[rng.Intn(len(floats))])
		case 3:
			return Float(k, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(60)-30)))
		default:
			return Bool(k, rng.Intn(2) == 0)
		}
	}
	attrs := func() []Attr {
		a := make([]Attr, rng.Intn(5))
		for i := range a {
			a[i] = value()
		}
		return a
	}
	var now int64
	var opts []Option
	opts = append(opts, WithNow(func() int64 { now += rng.Int63n(5000); return now }))
	if rng.Intn(2) == 0 {
		opts = append(opts, WithTraceID(pick(strs)))
	}
	tr := New(opts...)
	for s := rng.Intn(4); s >= 0; s-- {
		sc := tr.Scope(pick(strs))
		for n := rng.Intn(8); n > 0; n-- {
			switch rng.Intn(3) {
			case 0:
				sp := sc.Begin(pick(strs), attrs()...)
				sp.SetAttrs(attrs()...)
				if rng.Intn(3) > 0 {
					sp.End()
				}
			case 1:
				sc.Add(pick(strs), rng.Int63n(1e9), rng.Int63n(1e9)-1e8, attrs()...)
			default:
				tr.AddCycleSpan(pick(strs), pick(strs), rng.Int63n(1e12), rng.Int63n(1e12), attrs()...)
			}
		}
	}
	return tr
}

// TestWritePerfettoMatchesJSON: on random traces the streaming exporter
// writes exactly what the encoding/json one did.
func TestWritePerfettoMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 2000; i++ {
		samePerfetto(t, randomTrace(rng))
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tr := New()
		tr.Scope("s").Add("x", 0, 1, Float("v", f))
		if err := tr.WritePerfetto(io.Discard); err == nil {
			t.Errorf("exported %v without an error", f)
		}
		samePerfetto(t, tr)
	}
}

// FuzzWritePerfetto: arbitrary names, keys and values export as
// encoding/json would marshal them.
func FuzzWritePerfetto(f *testing.F) {
	f.Add("map", "flow", "graph", "mjpeg", int64(42), 0.25, true, false)
	f.Add("a<b>&c", "\u2028", "open", "\xff", int64(-1), 1e21, false, true)
	f.Add("", "", "", "", int64(0), 9.99e-7, false, false)
	f.Fuzz(func(t *testing.T, name, track, key, s string, i int64, fl float64, b, open bool) {
		var now int64
		tr := New(WithNow(func() int64 { now += 1500; return now }), WithTraceID(s))
		sc := tr.Scope(track)
		sp := sc.Begin(name, String(key, s), Int(key+"i", i), Float(key, fl), Bool("b"+key, b))
		if !open {
			sp.End()
		}
		tr.AddCycleSpan(track, name, i, i/2, Float(name, fl), String(s, key))
		samePerfetto(t, tr)
	})
}
