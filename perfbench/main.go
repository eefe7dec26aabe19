// Command perfbench is the repository's end-to-end benchmark. It drives
// the real mamps-serve binary, at its default flags, with one of four
// seeded closed-loop workloads, checks every response, and prints the
// result as one JSON line:
//
//	bash perfbench/run.sh --workload flow-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same workload runs again and the metrics break each request down into
// the modules it passes through (see README.md).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// setupRounds is how often a run sets the server up; setup_s is the
	// median, and the last server serves the timed phase.
	setupRounds = 5
	// digestN is the prefix of the timed sequence whose deterministic
	// fields must digest equally on two server processes.
	digestN = 16
	// windows is how many equal parts of the timed phase the medians of
	// throughput, median latency and CPU per request are taken over.
	windows = 10
	// minRequests is the least a timed phase must complete, so that
	// latency_p99_ms has at least ten samples beyond it.
	minRequests = 1000
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: flow-cold, cache-hit, analysis-mix or flow-recorded")
	seed := flag.Int64("seed", 1, "seed of the request sequence")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	bin := flag.String("bin", ".bench_build", "directory holding the built mamps-serve, mamps-runs and probe")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// sample is one timed request as the client saw it.
type sample struct {
	idx    int
	client int
	start  time.Duration // since the timed phase began
	lat    time.Duration
	bytes  int
	resp   *response // traced runs only; nil on failure
	digest string
	err    error
}

// bench is the state of one run.
type bench struct {
	w         *workload
	bin       string
	work      string
	runlogDir string // the timed server's registry, if any
	traced    bool
	clients   []*http.Client
	primed    [][]byte // cache-hit: normalized primed answer per key
	sent      int
	failed    int
	errs      []error
}

func (b *bench) fail(err error) {
	b.failed++
	if len(b.errs) < 5 {
		b.errs = append(b.errs, err)
	}
}

func run(name string, seed int64, seconds float64, traced bool, bin string) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	work, err := filepath.Abs(filepath.Join(bin, "work", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	// Flush the removal of this run's files before the next run starts,
	// so that writeback from one run does not slow the next.
	defer syscall.Sync()
	defer os.RemoveAll(work)
	b := &bench{w: w, bin: bin, work: work, traced: traced}
	for i := 0; i < w.conns; i++ {
		b.clients = append(b.clients, &http.Client{
			Timeout:   120 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}

	// Set-up: exec through /readyz plus the warm-up requests, several
	// times; the first server also answers the digest prefix.
	var setups []float64
	var srv *server
	var runlogDir, refDigest string
	for r := 0; r < setupRounds; r++ {
		if w.runlog {
			runlogDir = filepath.Join(work, fmt.Sprintf("runlog-%d", r))
		}
		t0 := time.Now()
		srv, err = startServer(filepath.Join(bin, "mamps-serve"), filepath.Join(work, "serve.log"), runlogDir)
		if err != nil {
			return err
		}
		if err := srv.waitReady(b.clients[0], 30*time.Second); err != nil {
			srv.stop()
			return err
		}
		b.primed = make([][]byte, len(w.warmup))
		for _, req := range w.warmup {
			body, _, err := b.do(b.clients[0], srv.url, req, nil)
			if err == nil && req.Key >= 0 {
				b.primed[req.Key] = normalize(body)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r == 0 {
			var ds []string
			for i := 0; i < digestN; i++ {
				req := w.seq.at(i)
				body, _, err := b.do(b.clients[0], srv.url, req, b.primedFor(req))
				d := "failed"
				if err == nil {
					d, _ = digest(body)
				}
				ds = append(ds, d)
			}
			refDigest = chainDigests(ds)
		}
		if r < setupRounds-1 {
			if err := srv.stop(); err != nil {
				return err
			}
			os.RemoveAll(runlogDir)
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()
	// The set-up rounds wrote and removed registries; let that writeback
	// finish before timing starts.
	syscall.Sync()

	var before map[string]float64
	if traced {
		if before, err = srv.scrape(b.clients[0]); err != nil {
			return err
		}
	}
	dur := time.Duration(seconds * float64(time.Second))
	samples, cpuAt, err := b.closedLoop(srv, dur)
	if err != nil {
		return err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	after, err := srv.scrape(b.clients[0])
	if err != nil {
		return err
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return err
	}

	var ds []string
	for _, s := range samples[:min(digestN, len(samples))] {
		d := "failed"
		if s.err == nil {
			d = s.digest
		}
		ds = append(ds, d)
	}
	gotDigest := chainDigests(ds)
	if gotDigest != refDigest {
		b.fail(fmt.Errorf("digest of the first %d responses differs between servers: %s vs %s", digestN, refDigest, gotDigest))
	}
	b.runlogDir = runlogDir
	if w.runlog {
		b.fsck(runlogDir, len(w.warmup)+len(samples))
	}
	if len(samples) < minRequests {
		fmt.Fprintf(os.Stderr, "perfbench: warning: only %d requests completed (want >= %d); raise --seconds\n", len(samples), minRequests)
	}

	rec := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"connections": w.conns, "requests": len(samples), "digest": gotDigest,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "gomaxprocs_env": os.Getenv("GOMAXPROCS"),
		"go_version": runtime.Version(), "commit": buildInfo(after),
		"server_flags": srv.args, "registry_fs": fsType(work), "setup_rounds": setups,
	}
	recLine, _ := json.Marshal(map[string]any{"run": rec})
	fmt.Println(string(recLine))

	res := result{Attempted: b.sent, Failed: b.failed, Metrics: map[string]metric{}}
	res.Correct = b.failed == 0
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	if traced {
		if err := b.layers(res.Metrics, samples, before, after, seed); err != nil {
			return err
		}
	} else {
		e2e(res.Metrics, samples, cpuAt, dur)
		res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (b *bench) primedFor(req request) []byte {
	if req.Key >= 0 && b.primed != nil {
		return b.primed[req.Key]
	}
	return nil
}

// do sends one checked request outside the timed phase.
func (b *bench) do(c *http.Client, url string, req request, primed []byte) ([]byte, response, error) {
	b.sent++
	status, body, err := post(c, url, req)
	var r response
	if err == nil {
		r, err = check(req, status, body, primed)
	}
	if err != nil {
		b.fail(err)
	}
	return body, r, err
}

func post(c *http.Client, url string, req request) (int, []byte, error) {
	resp, err := c.Post(url+req.Path, "application/json", bytes.NewReader(req.Body))
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// closedLoop runs one client per connection: each sends the sequence's
// next request when its previous one has completed, until the phase
// ends. Requests in flight at the deadline complete and count in the
// latencies. Samples come back in sequence order, with the server's CPU
// time read at each window boundary.
func (b *bench) closedLoop(srv *server, dur time.Duration) ([]sample, []float64, error) {
	var next atomic.Int64
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range b.clients {
		wg.Add(1)
		go func(ci int, c *http.Client) {
			defer wg.Done()
			var local []sample
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				req := b.w.seq.at(i)
				t0 := time.Now()
				status, body, err := post(c, srv.url, req)
				s := sample{idx: i, client: ci, start: t0.Sub(start), lat: time.Since(t0), bytes: len(body)}
				var r response
				if err == nil {
					r, err = check(req, status, body, b.primedFor(req))
				}
				if err == nil && i < digestN {
					s.digest, err = digest(body)
				}
				// Only traced runs read the responses again; an untraced
				// run keeps its client's heap, and GC work, small.
				if err == nil && b.traced {
					if b.primedFor(req) != nil {
						err = json.Unmarshal(body, &r)
					}
					s.resp = &r
				}
				s.err = err
				local = append(local, s)
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}(ci, c)
	}
	var cpuAt []float64
	var cpuErr error
	for k := 0; k <= windows; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * dur / windows)))
		ms, err := srv.cpuMS()
		cpuErr = errors.Join(cpuErr, err)
		cpuAt = append(cpuAt, ms)
	}
	wg.Wait()
	sort.Slice(all, func(i, j int) bool { return all[i].idx < all[j].idx })
	b.sent += len(all)
	for _, s := range all {
		if s.err != nil {
			b.fail(s.err)
		}
	}
	return all, cpuAt, cpuErr
}

// e2e computes the end-to-end metrics except set-up and memory. The
// timed phase is cut into equal windows by completion time; throughput,
// median latency and CPU per request are medians over the windows, so a
// burst of interference from outside moves one window, not the result.
func e2e(m map[string]metric, samples []sample, cpuAt []float64, dur time.Duration) {
	win := dur / windows
	var all []float64
	lats := make([][]float64, windows)
	first, last := make([]time.Duration, windows), make([]time.Duration, windows)
	for _, s := range samples {
		ms := float64(s.lat) / 1e6
		all = append(all, ms)
		end := s.start + s.lat
		if k := int(end / win); k < windows {
			if len(lats[k]) == 0 || end < first[k] {
				first[k] = end
			}
			last[k] = max(last[k], end)
			lats[k] = append(lats[k], ms)
		}
	}
	var rps, p50, p99, cpu []float64
	for k, l := range lats {
		sort.Float64s(l)
		// Completions per second between the window's first and last
		// completion, which does not round to whole requests per window.
		rps = append(rps, float64(len(l)-1)/(last[k]-first[k]).Seconds())
		p50 = append(p50, quantile(l, 0.5))
		p99 = append(p99, quantile(l, 0.99))
		cpu = append(cpu, (cpuAt[k+1]-cpuAt[k])/float64(max(1, len(l))))
	}
	sort.Float64s(all)
	m["throughput_rps"] = metric{median(rps), "1/s"}
	m["latency_p50_ms"] = metric{median(p50), "ms"}
	m["cpu_ms_per_op"] = metric{median(cpu), "ms"}
	// The 99th percentile is a median over windows too when every window
	// has ten samples beyond it, and else is taken over the whole run.
	m["latency_p99_ms"] = metric{quantile(all, 0.99), "ms"}
	if slices.IndexFunc(lats, func(l []float64) bool { return len(l) < minRequests }) < 0 {
		m["latency_p99_ms"] = metric{median(p99), "ms"}
	}
}

// fsck verifies the drained registry and that it holds one record per
// computed request.
func (b *bench) fsck(dir string, want int) {
	out, err := exec.Command(filepath.Join(b.bin, "mamps-runs"), "-dir", dir, "fsck", "-json").Output()
	if err != nil {
		b.fail(fmt.Errorf("fsck: %v: %s", err, out))
		return
	}
	var rep struct {
		Records  int
		Problems []string
		Warnings []string
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		b.fail(fmt.Errorf("fsck report: %v", err))
		return
	}
	if rep.Records != want || len(rep.Problems)+len(rep.Warnings) > 0 {
		b.fail(fmt.Errorf("fsck: %d records (want %d), problems %v, warnings %v", rep.Records, want, rep.Problems, rep.Warnings))
	}
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// buildInfo is the server's mamps_build_info labels: the commit it was
// built from (when built inside a git checkout) and its Go version.
func buildInfo(m map[string]float64) string {
	for k := range m {
		if rest, ok := bytes.CutPrefix([]byte(k), []byte("mamps_build_info{")); ok {
			return string(bytes.TrimSuffix(rest, []byte("}")))
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, where the registry lives.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
