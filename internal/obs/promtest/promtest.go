// Package promtest is a validator for the Prometheus text exposition
// format (version 0.0.4), used by tests that scrape /metrics: instead of
// grepping for a handful of known series, the whole document is checked
// line by line — every sample must parse, belong to a family whose
// # TYPE (and # HELP) was declared before its first sample, histogram
// families must carry well-formed cumulative _bucket series ending in
// le="+Inf", and no series may appear twice. The checker is deliberately
// strict about structure and silent about naming taste (it does not
// demand _total suffixes), so it can gate real expositions without a
// lint allowlist. Only _test.go files import it, so it is not linked
// into any command.
package promtest

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promFamily tracks one metric family's declaration and samples.
type promFamily struct {
	typ     string
	help    bool
	sampled bool
	// histogram bookkeeping, per label set (le stripped)
	buckets map[string][]promBucket
	sums    map[string]float64
	counts  map[string]float64
	hasSum  map[string]bool
	hasCnt  map[string]bool
}

type promBucket struct {
	le  float64
	val float64
}

// CheckPrometheusText validates a Prometheus text exposition. It returns
// the first structural violation found, or nil for a well-formed
// document.
func CheckPrometheusText(r io.Reader) error {
	fams := map[string]*promFamily{}
	family := func(name string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{
				buckets: map[string][]promBucket{},
				sums:    map[string]float64{}, counts: map[string]float64{},
				hasSum: map[string]bool{}, hasCnt: map[string]bool{},
			}
			fams[name] = f
		}
		return f
	}
	seen := map[string]bool{} // full series (name + label set) dedup

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parsePromComment(line)
			if err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			if kind == "" { // a plain comment
				continue
			}
			f := family(name)
			switch kind {
			case "HELP":
				if f.help {
					return fmt.Errorf("line %d: duplicate # HELP for %s", lineNo, name)
				}
				f.help = true
			case "TYPE":
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: invalid metric type %q for %s", lineNo, rest, name)
				}
				if f.typ != "" {
					return fmt.Errorf("line %d: duplicate # TYPE for %s", lineNo, name)
				}
				if f.sampled {
					return fmt.Errorf("line %d: # TYPE for %s after its samples", lineNo, name)
				}
				f.typ = rest
			}
			continue
		}

		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		series := name + "{" + labels + "}"
		if seen[series] {
			return fmt.Errorf("line %d: duplicate series %s", lineNo, series)
		}
		seen[series] = true

		base, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, sfx)
			if trimmed != name {
				if f, ok := fams[trimmed]; ok && (f.typ == "histogram" || f.typ == "summary") {
					base, suffix = trimmed, sfx
				}
				break
			}
		}
		f, ok := fams[base]
		if !ok || f.typ == "" {
			return fmt.Errorf("line %d: sample %s has no preceding # TYPE", lineNo, name)
		}
		if !f.help {
			return fmt.Errorf("line %d: sample %s has no preceding # HELP", lineNo, name)
		}
		f.sampled = true

		switch f.typ {
		case "histogram":
			key, le, hasLE := splitLE(labels)
			switch suffix {
			case "_bucket":
				if !hasLE {
					return fmt.Errorf("line %d: histogram bucket %s lacks an le label", lineNo, name)
				}
				bound, err := parsePromFloat(le)
				if err != nil {
					return fmt.Errorf("line %d: bad le=%q: %w", lineNo, le, err)
				}
				f.buckets[key] = append(f.buckets[key], promBucket{le: bound, val: value})
			case "_sum":
				f.sums[key], f.hasSum[key] = value, true
			case "_count":
				f.counts[key], f.hasCnt[key] = value, true
			default:
				return fmt.Errorf("line %d: histogram %s has a bare sample (want _bucket/_sum/_count)", lineNo, base)
			}
		case "counter":
			if suffix != "" {
				return fmt.Errorf("line %d: counter %s has suffixed sample %s", lineNo, base, name)
			}
			if value < 0 {
				return fmt.Errorf("line %d: counter %s is negative (%g)", lineNo, name, value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	// Cross-line histogram structure: cumulative, +Inf-terminated, count
	// matching the +Inf bucket.
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if f.typ != "histogram" || !f.sampled {
			continue
		}
		for key, bs := range f.buckets {
			sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
			last := math.Inf(-1)
			prev := -1.0
			for _, b := range bs {
				if b.le == last {
					return fmt.Errorf("histogram %s{%s}: duplicate le=%g", name, key, b.le)
				}
				if b.val < prev {
					return fmt.Errorf("histogram %s{%s}: bucket counts not cumulative at le=%g", name, key, b.le)
				}
				last, prev = b.le, b.val
			}
			if !math.IsInf(last, 1) {
				return fmt.Errorf("histogram %s{%s}: no le=\"+Inf\" bucket", name, key)
			}
			if !f.hasCnt[key] || !f.hasSum[key] {
				return fmt.Errorf("histogram %s{%s}: missing _sum or _count", name, key)
			}
			if f.counts[key] != bs[len(bs)-1].val {
				return fmt.Errorf("histogram %s{%s}: _count %g != +Inf bucket %g",
					name, key, f.counts[key], bs[len(bs)-1].val)
			}
		}
	}
	return nil
}

// parsePromComment parses a # line. Returns kind "" for plain comments.
func parsePromComment(line string) (kind, name, rest string, err error) {
	body := strings.TrimPrefix(line, "#")
	body = strings.TrimPrefix(body, " ")
	switch {
	case strings.HasPrefix(body, "HELP "):
		fields := strings.SplitN(body[len("HELP "):], " ", 2)
		if fields[0] == "" || !validMetricName(fields[0]) {
			return "", "", "", fmt.Errorf("malformed # HELP line %q", line)
		}
		return "HELP", fields[0], "", nil
	case strings.HasPrefix(body, "TYPE "):
		fields := strings.Fields(body[len("TYPE "):])
		if len(fields) != 2 || !validMetricName(fields[0]) {
			return "", "", "", fmt.Errorf("malformed # TYPE line %q", line)
		}
		return "TYPE", fields[0], fields[1], nil
	}
	return "", "", "", nil
}

// parsePromSample parses `name{labels} value [timestamp]`. labels is
// returned in its rendered form (possibly empty).
func parsePromSample(line string) (name, labels string, value float64, err error) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	if brace >= 0 {
		name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return "", "", 0, fmt.Errorf("unclosed label braces in %q", line)
		}
		labels = rest[brace+1 : end]
		if err := checkLabels(labels); err != nil {
			return "", "", 0, fmt.Errorf("%w in %q", err, line)
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return "", "", 0, fmt.Errorf("sample without value: %q", line)
		}
		name = rest[:sp]
		rest = strings.TrimSpace(rest[sp:])
	}
	if !validMetricName(name) {
		return "", "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", 0, fmt.Errorf("want `value [timestamp]` after series, got %q", rest)
	}
	value, err = parsePromFloat(fields[0])
	if err != nil {
		return "", "", 0, fmt.Errorf("bad sample value %q: %w", fields[0], err)
	}
	return name, labels, value, nil
}

// checkLabels validates a rendered label list: name="value" pairs,
// comma-separated, values quoted with \" \\ \n escapes only.
func checkLabels(s string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return fmt.Errorf("malformed label pair")
		}
		lname := s[:eq]
		if !validLabelName(lname) {
			return fmt.Errorf("invalid label name %q", lname)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("unquoted value for label %q", lname)
		}
		s = s[1:]
		closed := false
		for i := 0; i < len(s); i++ {
			if s[i] == '\\' {
				if i+1 >= len(s) || (s[i+1] != '"' && s[i+1] != '\\' && s[i+1] != 'n') {
					return fmt.Errorf("bad escape in value of label %q", lname)
				}
				i++
				continue
			}
			if s[i] == '"' {
				s = s[i+1:]
				closed = true
				break
			}
		}
		if !closed {
			return fmt.Errorf("unterminated value for label %q", lname)
		}
		if len(s) > 0 {
			if s[0] != ',' {
				return fmt.Errorf("junk after value of label %q", lname)
			}
			s = s[1:]
		}
	}
	return nil
}

// splitLE removes the le label from a rendered label list, returning the
// remaining labels (the histogram series key) and the le value.
func splitLE(labels string) (key, le string, ok bool) {
	if labels == "" {
		return "", "", false
	}
	var kept []string
	for _, part := range splitLabelPairs(labels) {
		if v, found := strings.CutPrefix(part, "le=\""); found && strings.HasSuffix(v, "\"") {
			le, ok = v[:len(v)-1], true
			continue
		}
		kept = append(kept, part)
	}
	return strings.Join(kept, ","), le, ok
}

// splitLabelPairs splits a rendered label list on the commas between
// pairs (commas inside quoted values are kept).
func splitLabelPairs(s string) []string {
	var out []string
	start, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\\' && inQuote:
			i++
		case s[i] == '"':
			inQuote = !inQuote
		case s[i] == ',' && !inQuote:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func parsePromFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validMetricName(s string) bool {
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return s != ""
}

func validLabelName(s string) bool {
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return s != ""
}
