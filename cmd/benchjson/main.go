// Command benchjson converts the `go test -json -bench` event stream on
// stdin into a compact JSON benchmark report on stdout, used by `make
// bench-json` to record the performance trajectory as BENCH_<date>.json
// files. With -verify it instead validates an existing report file (the
// CI bench-smoke job uses this to guard against bit-rot in the pipeline).
//
// With -compare it parses the stream and gates metrics against a
// recorded baseline report: any benchmark present in both whose metric
// exceeds baseline*max-ratio fails the run. A benchmark run several
// times (go test -count) is gated on the median of each metric over its
// runs. -gate takes several gates at once as comma-separated
// unit:max-ratio pairs. `make obs-smoke` uses
//
//	go test -run '^$' -bench '...' -benchmem -benchtime=5x -count=5 -json . |
//	    benchjson -compare BENCH_2026-08-06.json -gate 'allocs/op:1,ns/op:1.2'
//
// to prove the telemetry layer adds zero allocations to the kernel hot
// paths when disabled, and to flag wall-time regressions beyond 20%.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Metric is one "<value> <unit>" pair of a benchmark result line, e.g.
// ns/op, B/op, allocs/op, or a custom metric like states/op.
type Metric struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string   `json:"name"`
	Iterations int64    `json:"iterations"`
	Metrics    []Metric `json:"metrics"`
}

// Report is the file format of BENCH_<date>.json.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// event is the subset of test2json events we care about.
type event struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

var resultLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// stripProcSuffix removes the trailing -<GOMAXPROCS> tag go test appends
// to benchmark names ("BenchmarkX-8" -> "BenchmarkX").
func stripProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func main() {
	verify := flag.String("verify", "", "validate an existing report file instead of converting stdin")
	compare := flag.String("compare", "", "baseline report file to gate the stdin stream against")
	metric := flag.String("metric", "allocs/op", "metric unit gated by -compare")
	maxRatio := flag.Float64("max-ratio", 1.0, "fail -compare when current > baseline*ratio")
	gate := flag.String("gate", "", "comma-separated unit:max-ratio gates for -compare (e.g. 'allocs/op:1,ns/op:1.2'); overrides -metric/-max-ratio")
	flag.Parse()

	if *verify != "" {
		if err := verifyReport(*verify); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *compare != "" {
		gates := []gateSpec{{unit: *metric, maxRatio: *maxRatio}}
		if *gate != "" {
			var err error
			gates, err = parseGates(*gate)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				os.Exit(1)
			}
		}
		if err := compareReport(*compare, gates); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func parse(r *os.File) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	// A single benchmark result line reaches test2json as several output
	// events (go test prints the name before running the benchmark and the
	// numbers after), so reassemble the raw text stream and split it on
	// newlines ourselves.
	var pending strings.Builder
	handle := func(out string) {
		switch {
		case strings.HasPrefix(out, "goos: "):
			rep.Goos = strings.TrimPrefix(out, "goos: ")
		case strings.HasPrefix(out, "goarch: "):
			rep.Goarch = strings.TrimPrefix(out, "goarch: ")
		case strings.HasPrefix(out, "cpu: "):
			rep.CPU = strings.TrimPrefix(out, "cpu: ")
		default:
			if b, ok := parseResult(out); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("malformed test2json line %q: %w", sc.Text(), err)
		}
		if ev.Action != "output" {
			continue
		}
		pending.WriteString(ev.Output)
		for {
			s := pending.String()
			nl := strings.IndexByte(s, '\n')
			if nl < 0 {
				break
			}
			handle(s[:nl])
			pending.Reset()
			pending.WriteString(s[nl+1:])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rest := pending.String(); rest != "" {
		handle(rest)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found on stdin")
	}
	return rep, nil
}

// parseResult parses a benchmark result line of the form
// "BenchmarkX-8  <iterations>  <value> <unit>  <value> <unit> ...".
func parseResult(line string) (Benchmark, bool) {
	m := resultLine.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(m[2], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: stripProcSuffix(m[1]), Iterations: iters}
	fields := strings.Fields(m[3])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics = append(b.Metrics, Metric{Unit: fields[i+1], Value: v})
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}

// verifyReport checks that a report file is well-formed: valid JSON with
// at least one benchmark, each carrying at least one metric.
func verifyReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: not valid JSON: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmarks recorded", path)
	}
	for _, b := range rep.Benchmarks {
		if b.Name == "" || len(b.Metrics) == 0 {
			return fmt.Errorf("%s: malformed benchmark entry %+v", path, b)
		}
	}
	fmt.Printf("%s: %d benchmarks OK\n", path, len(rep.Benchmarks))
	return nil
}

// metricOf returns a benchmark's value for the given unit.
func metricOf(b Benchmark, unit string) (float64, bool) {
	for _, m := range b.Metrics {
		if m.Unit == unit {
			return m.Value, true
		}
	}
	return 0, false
}

// gateSpec is one -compare gate: a metric unit and the highest tolerated
// current/baseline ratio.
type gateSpec struct {
	unit     string
	maxRatio float64
}

// parseGates parses the -gate list ("allocs/op:1,ns/op:1.2").
func parseGates(s string) ([]gateSpec, error) {
	var gates []gateSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		i := strings.LastIndex(part, ":")
		if i < 0 {
			return nil, fmt.Errorf("bad gate %q: want unit:max-ratio", part)
		}
		ratio, err := strconv.ParseFloat(part[i+1:], 64)
		if err != nil || ratio <= 0 {
			return nil, fmt.Errorf("bad gate ratio in %q: want a positive number", part)
		}
		gates = append(gates, gateSpec{unit: part[:i], maxRatio: ratio})
	}
	if len(gates) == 0 {
		return nil, fmt.Errorf("empty -gate list")
	}
	return gates, nil
}

// medians folds the repeated runs of each benchmark into one entry, in
// order of first appearance, whose every metric is the median of that
// metric over the runs (the mean of the middle two for an even count).
func medians(runs []Benchmark) []Benchmark {
	var out []Benchmark
	seen := make(map[string]bool)
	values := make(map[[2]string][]float64) // {name, unit} -> one value per run
	for _, b := range runs {
		if !seen[b.Name] {
			seen[b.Name] = true
			out = append(out, Benchmark{Name: b.Name, Metrics: append([]Metric(nil), b.Metrics...)})
		}
		for _, m := range b.Metrics {
			k := [2]string{b.Name, m.Unit}
			values[k] = append(values[k], m.Value)
		}
	}
	for _, b := range out {
		for i, m := range b.Metrics {
			vs := values[[2]string{b.Name, m.Unit}]
			sort.Float64s(vs)
			b.Metrics[i].Value = (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
		}
	}
	return out
}

// compareReport parses the test2json stream on stdin once and gates each
// metric against the baseline report: every benchmark present in both
// must satisfy current <= baseline*maxRatio for every gate, where current
// is the median over the benchmark's runs on stdin. Benchmarks
// missing from the baseline (or lacking a metric) are reported but don't
// fail the run, so adding new benchmarks never breaks the gate.
func compareReport(baselinePath string, gates []gateSpec) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: not valid JSON: %w", baselinePath, err)
	}
	baseBy := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}

	cur, err := parse(os.Stdin)
	if err != nil {
		return err
	}
	var failures []string
	for _, g := range gates {
		compared := 0
		for _, b := range medians(cur.Benchmarks) {
			got, ok := metricOf(b, g.unit)
			if !ok {
				continue
			}
			ref, ok := baseBy[b.Name]
			if !ok {
				fmt.Printf("%-48s %s %g (no baseline, skipped)\n", b.Name, g.unit, got)
				continue
			}
			want, ok := metricOf(ref, g.unit)
			if !ok {
				fmt.Printf("%-48s %s %g (baseline lacks metric, skipped)\n", b.Name, g.unit, got)
				continue
			}
			compared++
			limit := want * g.maxRatio
			status := "ok"
			if got > limit {
				status = "FAIL"
				failures = append(failures,
					fmt.Sprintf("%s: %s %g exceeds baseline %g (limit %g)", b.Name, g.unit, got, want, limit))
			}
			fmt.Printf("%-48s %s %g vs baseline %g  %s\n", b.Name, g.unit, got, want, status)
		}
		if compared == 0 {
			return fmt.Errorf("no benchmarks on stdin matched the baseline for %s", g.unit)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}
