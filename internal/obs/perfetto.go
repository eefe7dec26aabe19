package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The Perfetto exporter renders a Trace as a Chrome trace_event JSON
// document ({"traceEvents":[...]}) loadable in ui.perfetto.dev or
// chrome://tracing. Wall-domain spans appear under the "flow (wall
// clock)" process with nanosecond precision (trace_event timestamps are
// microseconds); cycle-domain spans appear under the "platform (cycles)"
// process with one cycle rendered as one microsecond, so the simulator's
// Gantt lanes and the flow's wall timeline sit side by side in one view.
//
// Events are encoded straight into one buffer, byte for byte as
// encoding/json would marshal them: fields in the order name, ph, ts,
// dur, pid, tid, args; args as an object with sorted keys, the last of
// duplicate keys winning; encoding/json's float and HTML-escaped string
// forms.

const (
	pidWall   = 1
	pidCycles = 2
)

// WritePerfetto writes the trace's spans as a trace_event JSON document,
// one event per line. Tracks are assigned thread IDs in sorted name
// order within their domain, so the output is deterministic for a
// deterministic recording. Spans still open are closed at their track's
// last observed time and flagged with an "open":true arg, so stalled or
// interrupted activities render instead of disappearing. A NaN or
// infinite attribute value is an error, and nothing is written.
func (t *Trace) WritePerfetto(w io.Writer) error {
	b, err := t.AppendPerfetto(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendPerfetto appends the document WritePerfetto writes to b and
// returns the extended buffer; on error it returns b unchanged.
func (t *Trace) AppendPerfetto(b []byte) ([]byte, error) {
	if t == nil {
		return b, fmt.Errorf("obs: cannot export a nil trace")
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
	nspans := 0
	for k, spans := range byKey {
		d := Wall
		if k[0] == domainName(Cycles) {
			d = Cycles
		}
		snaps = append(snaps, trackSnap{domain: d, track: k[1], spans: spans})
		nspans += len(spans)
	}
	sort.Slice(snaps, func(i, j int) bool {
		if snaps[i].domain != snaps[j].domain {
			return snaps[i].domain < snaps[j].domain
		}
		return snaps[i].track < snaps[j].track
	})

	e := teEncoder{buf: slices.Grow(b, 256+128*(nspans+len(snaps)))}
	e.buf = append(e.buf, "{\"traceEvents\":[\n"...)
	e.meta("process_name", pidWall, 0, "name", "flow (wall clock)")
	e.meta("process_name", pidCycles, 0, "name", "platform (cycles)")
	if t.traceID != "" {
		// Tag the export with the W3C trace-id so cross-process traces
		// stitch; emitted only when set, keeping untagged goldens stable.
		e.meta("trace_context", pidWall, 0, "traceID", t.traceID)
	}

	tid := map[Domain]int{Wall: 0, Cycles: 0}
	for _, sn := range snaps {
		pid := pidWall
		if sn.domain == Cycles {
			pid = pidCycles
		}
		tid[sn.domain]++
		id := tid[sn.domain]
		e.meta("thread_name", pid, id, "name", sn.track)

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
			e.span(r.name, pid, id, toMicros(r.start, sn.domain), toMicros(dur, sn.domain), r.attrs, open)
		}
	}
	if e.err != nil {
		return b, e.err
	}
	return append(e.buf, "\n]}\n"...), nil
}

// teEncoder appends trace_event entries to buf; err keeps the first
// unencodable value.
type teEncoder struct {
	buf    []byte
	events int
	args   []Attr // scratch for sorting one span's args
	err    error
}

// head opens one event and writes its fields up to tid.
func (e *teEncoder) head(name, ph string, pid, tid int, ts float64, dur *float64) {
	if e.events > 0 {
		e.buf = append(e.buf, ",\n"...)
	}
	e.events++
	e.buf = append(e.buf, `{"name":`...)
	e.buf = appendJSONString(e.buf, name)
	e.buf = append(e.buf, `,"ph":`...)
	e.buf = appendJSONString(e.buf, ph)
	e.buf = append(e.buf, `,"ts":`...)
	e.float(ts)
	if dur != nil {
		e.buf = append(e.buf, `,"dur":`...)
		e.float(*dur)
	}
	e.buf = append(e.buf, `,"pid":`...)
	e.buf = strconv.AppendInt(e.buf, int64(pid), 10)
	e.buf = append(e.buf, `,"tid":`...)
	e.buf = strconv.AppendInt(e.buf, int64(tid), 10)
}

// meta writes a metadata ("M") event with one string arg.
func (e *teEncoder) meta(name string, pid, tid int, key, val string) {
	e.head(name, "M", pid, tid, 0, nil)
	e.buf = append(e.buf, `,"args":{`...)
	e.buf = appendJSONString(e.buf, key)
	e.buf = append(e.buf, ':')
	e.buf = appendJSONString(e.buf, val)
	e.buf = append(e.buf, "}}"...)
}

// span writes a complete ("X") event. Its args are the attrs plus
// "open":true for a span still open, sorted by key; of duplicate keys
// the last wins, as it would in a map filled in order.
func (e *teEncoder) span(name string, pid, tid int, ts, dur float64, attrs []Attr, open bool) {
	e.head(name, "X", pid, tid, ts, &dur)
	if len(attrs) == 0 && !open {
		e.buf = append(e.buf, '}')
		return
	}
	args := append(e.args[:0], attrs...)
	if open {
		args = append(args, Bool("open", true))
	}
	slices.SortStableFunc(args, func(a, b Attr) int { return strings.Compare(a.Key, b.Key) })
	e.buf = append(e.buf, `,"args":{`...)
	for i, a := range args {
		if i+1 < len(args) && args[i+1].Key == a.Key {
			continue
		}
		if e.buf[len(e.buf)-1] != '{' {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendJSONString(e.buf, a.Key)
		e.buf = append(e.buf, ':')
		e.value(a.Val)
	}
	e.buf = append(e.buf, "}}"...)
	e.args = args
}

// value appends one arg value; the span constructors' types are encoded
// directly, anything else through encoding/json.
func (e *teEncoder) value(v any) {
	switch v := v.(type) {
	case string:
		e.buf = appendJSONString(e.buf, v)
	case int64:
		e.buf = strconv.AppendInt(e.buf, v, 10)
	case float64:
		e.float(v)
	case bool:
		e.buf = strconv.AppendBool(e.buf, v)
	default:
		b, err := json.Marshal(v)
		if err != nil && e.err == nil {
			e.err = err
		}
		e.buf = append(e.buf, b...)
	}
}

// float appends f as encoding/json does: the shortest round-tripping
// decimal, in exponent form below 1e-6 and from 1e21 up, with the
// exponent's leading zero trimmed. NaN and infinities are an error.
func (e *teEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("obs: unsupported trace value %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.buf = b
}

// appendJSONString appends s as a JSON string the way encoding/json
// does: ", \ and control bytes escaped, <, > and & as \u00XX, invalid
// UTF-8 as \ufffd, and U+2028/U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// toMicros converts a span time to trace_event microseconds: wall
// nanoseconds are divided down, platform cycles map 1:1.
func toMicros(v int64, d Domain) float64 {
	if d == Wall {
		return float64(v) / 1e3
	}
	return float64(v)
}

func domainName(d Domain) string {
	if d == Cycles {
		return "cycles"
	}
	return "wall"
}
