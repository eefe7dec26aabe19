package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"mamps/internal/obs"
)

// metrics aggregates the service counters. All methods are safe for
// concurrent use. The fixed-bucket histograms are obs.Histogram (shared
// with the rest of the telemetry layer); request counters stay under one
// lock, which is fine at the /metrics scrape rates the service targets.
// reqKey labels one request counter series.
type reqKey struct {
	endpoint string
	code     int
}

type metrics struct {
	mu       sync.Mutex
	requests map[reqKey]uint64
	latency  map[string]*obs.Histogram // endpoint -> request latency
	rejected map[string]uint64         // reason -> count
	jobs     uint64                    // jobs completed by workers
	panics   uint64                    // handler/job panics recovered

	// queueWait observes the time each job spent waiting in the bounded
	// queue before a worker picked it up — the admission-side latency a
	// request pays before any computation starts.
	queueWait *obs.Histogram
}

func newMetrics() *metrics {
	return &metrics{
		requests:  make(map[reqKey]uint64),
		latency:   make(map[string]*obs.Histogram),
		rejected:  make(map[string]uint64),
		queueWait: obs.NewHistogram(obs.DefaultLatencyBuckets...),
	}
}

// observeRequest records one finished HTTP request.
func (m *metrics) observeRequest(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	m.requests[reqKey{endpoint, code}]++
	h, ok := m.latency[endpoint]
	if !ok {
		h = obs.NewHistogram(obs.DefaultLatencyBuckets...)
		m.latency[endpoint] = h
	}
	m.mu.Unlock()
	h.Observe(d.Seconds())
}

// observeQueueWait records one job's time from enqueue to worker pickup.
func (m *metrics) observeQueueWait(d time.Duration) {
	m.queueWait.Observe(d.Seconds())
}

// observeReject records a request turned away before reaching a worker.
func (m *metrics) observeReject(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejected[reason]++
}

// snapshotRejects returns a copy of the rejection counters.
func (m *metrics) snapshotRejects() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.rejected))
	for k, v := range m.rejected {
		out[k] = v
	}
	return out
}

// observeJob records one job completed by a worker.
func (m *metrics) observeJob() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs++
}

// observePanic records one recovered handler or job panic.
func (m *metrics) observePanic() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics++
}

// gauge is a point-in-time value appended by the server at render time.
// Monotonic values (the cache's *_total series) set counter so the
// exposition declares the right Prometheus type; labels, when non-empty,
// is a rendered label list without braces (mamps_build_info uses it).
type gauge struct {
	name, help string
	labels     string
	value      float64
	counter    bool
}

// write renders the Prometheus text exposition format.
func (m *metrics) write(w io.Writer, gauges []gauge) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(w, "# HELP mamps_requests_total Requests finished, by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE mamps_requests_total counter")
	rks := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		rks = append(rks, k)
	}
	sort.Slice(rks, func(i, j int) bool {
		if rks[i].endpoint != rks[j].endpoint {
			return rks[i].endpoint < rks[j].endpoint
		}
		return rks[i].code < rks[j].code
	})
	for _, k := range rks {
		fmt.Fprintf(w, "mamps_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}

	fmt.Fprintln(w, "# HELP mamps_requests_rejected_total Requests rejected before execution, by reason.")
	fmt.Fprintln(w, "# TYPE mamps_requests_rejected_total counter")
	for _, k := range sortedKeys(m.rejected) {
		fmt.Fprintf(w, "mamps_requests_rejected_total{reason=%q} %d\n", k, m.rejected[k])
	}

	fmt.Fprintln(w, "# HELP mamps_jobs_total Jobs completed by the worker pool.")
	fmt.Fprintln(w, "# TYPE mamps_jobs_total counter")
	fmt.Fprintf(w, "mamps_jobs_total %d\n", m.jobs)

	fmt.Fprintln(w, "# HELP mamps_panics_total Handler and job panics recovered by the server.")
	fmt.Fprintln(w, "# TYPE mamps_panics_total counter")
	fmt.Fprintf(w, "mamps_panics_total %d\n", m.panics)

	fmt.Fprintln(w, "# HELP mamps_request_seconds Request latency, by endpoint.")
	fmt.Fprintln(w, "# TYPE mamps_request_seconds histogram")
	eps := make([]string, 0, len(m.latency))
	for ep := range m.latency {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		m.latency[ep].WritePrometheus(w, "mamps_request_seconds", fmt.Sprintf("endpoint=%q", ep))
	}

	fmt.Fprintln(w, "# HELP mamps_job_queue_wait_seconds Time jobs spent queued before a worker picked them up.")
	fmt.Fprintln(w, "# TYPE mamps_job_queue_wait_seconds histogram")
	m.queueWait.WritePrometheus(w, "mamps_job_queue_wait_seconds", "")

	for _, g := range gauges {
		typ := "gauge"
		if g.counter {
			typ = "counter"
		}
		series := g.name
		if g.labels != "" {
			series += "{" + g.labels + "}"
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", g.name, g.help, g.name, typ, series, g.value)
	}
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
