// Package service turns the one-shot design flow into a long-running
// mapping-as-a-service daemon: a content-addressed cache answers repeated
// requests and joins identical concurrent ones (single-flight), a bounded
// job queue and worker pool run the remaining computations of flow,
// analysis and design-space-exploration requests with per-job timeouts
// and cancellation, and a metrics layer exposes request counts, latency
// histograms, cache hit rates and worker utilization.
//
// The HTTP surface (see Handler) is JSON over the interchange types of
// internal/modelio:
//
//	POST /v1/analyze  — SDF3 graph analyses (repetition vector,
//	                    throughput, buffer sizing)
//	POST /v1/flow     — the end-to-end Figure 1 flow
//	POST /v1/dse      — platform design-space sweep with Pareto marking
//	GET  /healthz     — liveness and drain state
//	GET  /readyz      — readiness; 503 from the moment a drain begins
//	GET  /metrics     — Prometheus text exposition
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mamps/internal/clock"
	"mamps/internal/obs"
	"mamps/internal/obs/diag"
	"mamps/internal/obs/slo"
	"mamps/internal/runlog"
	"mamps/internal/service/cache"
)

// Config configures a Server.
type Config struct {
	// Workers is the number of concurrent job executors (default 4).
	Workers int
	// QueueDepth bounds the number of computations waiting for a worker;
	// a full queue turns away requests that need one with 429 (default
	// 64). Cache hits and joined requests never queue.
	QueueDepth int
	// JobTimeout bounds each job's execution (default 60s).
	JobTimeout time.Duration
	// CacheCapacity bounds the analysis cache in entries (default
	// cache.DefaultCapacity).
	CacheCapacity int
	// Clock is the time source for latency measurement and flow step
	// timing; nil selects the system monotonic clock.
	Clock clock.Clock
	// Logger receives structured access and lifecycle logs; every request
	// line carries the request ID also returned in the X-Request-ID
	// header. Nil discards logs.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// Handler. Off by default: the profiles expose internals, so the
	// operator opts in (mamps-serve -pprof).
	EnablePprof bool
	// RunLog, if non-nil, records every computed flow/DSE run into the
	// persistent run registry: per-run kernel counters, stage timings,
	// bound vs. measured throughput, a Perfetto trace artifact, and the
	// on-ingest baseline regression check. The registry's metrics
	// (mamps_runlog_records, mamps_regressions_total, ...) are attached
	// to the service's /metrics exposition. Cache hits replay a stored
	// computation and do not append new runs.
	RunLog *runlog.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.System()
	}
	return c
}

// Fixed operating settings of the SLO board and the diagnostics. Each
// has one value in use, so none is configurable.
const (
	// sloLatencyTarget is the request-latency bound of the
	// "analyze_latency" objective: a compute request (analyze/flow/dse)
	// answered within it is a good event. sloLatencyGoal is the
	// objective's target fraction of good events.
	sloLatencyTarget = 2 * time.Second
	sloLatencyGoal   = 0.99
	// sloThroughputGoal is the target fraction of recorded runs with a
	// throughput constraint whose guaranteed bound meets it (objective
	// "throughput_met"); sloRegressionGoal the target fraction of
	// recorded runs not tagged as regressions ("regression_free"). Both
	// objectives only observe events when a run registry is attached.
	sloThroughputGoal = 0.95
	sloRegressionGoal = 0.99
	// flightRecorderSize is the event capacity of the flight recorder
	// whose ring every diagnostic bundle snapshots.
	flightRecorderSize = 256
	// mutexProfileFraction and blockProfileRate tune the runtime's
	// mutex-contention and blocking profiles when EnablePprof is set
	// (served under /debug/pprof/): 1 in 100 contention events, one
	// sample per millisecond blocked.
	mutexProfileFraction = 100
	blockProfileRate     = 1_000_000
	// dumpCPUDuration is the length of the CPU profile every diagnostic
	// dump but a deadlock's captures.
	dumpCPUDuration = 200 * time.Millisecond
)

// Errors reported by submit and mapped to HTTP status codes by the
// handlers.
var (
	// ErrDraining rejects work arriving after Shutdown began.
	ErrDraining = errors.New("service: draining, not accepting new jobs")
	// ErrQueueFull rejects work when the bounded queue has no room.
	ErrQueueFull = errors.New("service: job queue full")
	// errJobPanic marks a job whose computation panicked: a server fault,
	// answered with a 500.
	errJobPanic = errors.New("service: job panic")
)

// job is one computation for the pool.
type job struct {
	ctx      context.Context
	enqueued time.Time
	run      func(context.Context) (any, error)
	result   chan jobResult
}

type jobResult struct {
	val any
	err error
}

// Server is the mapping service: worker pool, job queue, analysis cache
// and metrics. Create with New, serve its Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	clk     clock.Clock
	cache   *cache.Cache
	metrics *metrics
	start   time.Time

	log    *slog.Logger
	reqIDs obs.RequestIDs
	obsReg *obs.Registry
	// tel holds the process-wide registered counter groups (no trace)
	// that unrecorded jobs publish into and recorded runs fold into.
	tel    *obs.Set
	runlog *runlog.Registry

	slos          *slo.Board
	sloLatency    *slo.Tracker
	sloThroughput *slo.Tracker
	sloRegression *slo.Tracker

	recorder *diag.Recorder // flight recorder
	// dumpCPU is the CPU-profile length of a diagnostic dump
	// (dumpCPUDuration; tests set 0 for fast heap-only dumps).
	dumpCPU time.Duration

	gcPause   *obs.Histogram // mamps_gc_pause_seconds, fed at scrape time
	lastNumGC atomic.Uint32

	baseCtx context.Context // cancelled only by forced shutdown
	abort   context.CancelFunc

	mu       sync.RWMutex // guards draining state vs. queue sends
	draining bool
	stopped  atomic.Bool // workers have exited; /healthz goes down
	jobs     chan *job
	wg       sync.WaitGroup

	busy  atomic.Int64 // workers currently executing a job
	depth atomic.Int64 // jobs waiting in the queue
}

// New starts a Server's worker pool and returns it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, abort := context.WithCancel(context.Background())
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:     cfg,
		clk:     cfg.Clock,
		cache:   cache.New(cfg.CacheCapacity),
		metrics: newMetrics(),
		start:   cfg.Clock.Now(),
		log:     logger,
		obsReg:  reg,
		tel: &obs.Set{
			Explorer: obs.NewExplorerStats(reg),
			Sim:      obs.NewSimStats(reg),
			Solver:   obs.NewSolverStats(reg),
			Warm:     obs.NewWarmStats(reg),
		},
		runlog:  cfg.RunLog,
		dumpCPU: dumpCPUDuration,
		baseCtx: ctx,
		abort:   abort,
		jobs:    make(chan *job, cfg.QueueDepth),
	}
	if s.runlog != nil {
		s.runlog.AttachMetrics(reg)
	}
	s.slos = slo.NewBoard(cfg.Clock)
	s.sloLatency = s.slos.Add(slo.Objective{Name: "analyze_latency", Target: sloLatencyGoal})
	s.sloThroughput = s.slos.Add(slo.Objective{Name: "throughput_met", Target: sloThroughputGoal})
	s.sloRegression = s.slos.Add(slo.Objective{Name: "regression_free", Target: sloRegressionGoal})
	s.recorder = diag.NewRecorder(flightRecorderSize,
		diag.WithNow(func() int64 { return s.clk.Now().UnixNano() }))
	s.gcPause = reg.RegisterHistogram("mamps_gc_pause_seconds",
		"Stop-the-world GC pause durations.", obs.NewHistogram(gcPauseBuckets...))
	if cfg.EnablePprof {
		runtime.SetMutexProfileFraction(mutexProfileFraction)
		runtime.SetBlockProfileRate(blockProfileRate)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	s.log.Info("service started",
		"workers", cfg.Workers, "queueDepth", cfg.QueueDepth,
		"jobTimeout", cfg.JobTimeout, "pprof", cfg.EnablePprof)
	return s
}

// Cache exposes the analysis cache (for stats and tests).
func (s *Server) Cache() *cache.Cache { return s.cache }

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		s.depth.Add(-1)
		s.metrics.observeQueueWait(s.clk.Since(j.enqueued))
		if err := j.ctx.Err(); err != nil {
			j.result <- jobResult{err: err}
			continue
		}
		s.busy.Add(1)
		res := s.runJob(j)
		s.busy.Add(-1)
		s.metrics.observeJob()
		j.result <- res
	}
}

// runJob executes one job, converting a panic into an error so one faulty
// job cannot take a worker — and with it the daemon — down. A panic, or a
// *cache.PanicError the job returns from a panicked analysis, is counted
// and logged here once, and comes back as a *cache.PanicError wrapped in
// errJobPanic: a 500 for the job's request and for every request that
// joined it in cache.Do, none of which computes again.
func (s *Server) runJob(j *job) (res jobResult) {
	defer func() {
		if p := recover(); p != nil {
			res = jobResult{err: &cache.PanicError{Value: p, Stack: debug.Stack()}}
		}
		var pe *cache.PanicError
		if errors.As(res.err, &pe) {
			s.metrics.observePanic()
			s.log.Error("job panic", "panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
			res.err = fmt.Errorf("%w: %w", errJobPanic, res.err)
		}
	}()
	res.val, res.err = j.run(j.ctx)
	return res
}

// submit answers one request. The order of admission is drain, cache,
// queue: a draining server rejects everything, a cached key is answered
// and an in-flight one joined without a queue slot, and only the leader
// of a key takes a slot and a worker for the computation (see enqueue).
// The computation and every wait run under a context bounded by the
// caller's context, the per-job timeout, and the server's hard-abort
// context. An empty key bypasses the cache. hit reports whether the
// value came from the cache or a joined computation.
func (s *Server) submit(ctx context.Context, key string, run func(context.Context) (any, error)) (val any, hit bool, err error) {
	if s.Drained() {
		s.metrics.observeReject("draining")
		return nil, false, ErrDraining
	}
	jctx, cancel := context.WithTimeout(ctx, s.cfg.JobTimeout)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	compute := func() (any, error) { return s.enqueue(jctx, run) }
	if key == "" {
		val, err = compute()
		return val, false, err
	}
	return s.cache.Do(jctx, key, compute)
}

// enqueue queues one computation and waits for its result. A draining
// server or a full queue turns it away at once; the drain check holds
// the lock that Shutdown takes to close the queue.
func (s *Server) enqueue(ctx context.Context, run func(context.Context) (any, error)) (any, error) {
	j := &job{ctx: ctx, enqueued: s.clk.Now(), run: run, result: make(chan jobResult, 1)}

	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		s.metrics.observeReject("draining")
		return nil, ErrDraining
	}
	select {
	case s.jobs <- j:
		s.depth.Add(1)
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.metrics.observeReject("queue_full")
		return nil, ErrQueueFull
	}

	select {
	case r := <-j.result:
		return r.val, r.err
	case <-ctx.Done():
		// The job may still be queued or running; the worker will see the
		// cancelled context. Don't leak the result channel (buffered).
		return nil, ctx.Err()
	}
}

// Drained reports whether Shutdown has begun.
func (s *Server) Drained() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// Shutdown gracefully drains the server: new submissions are rejected
// with ErrDraining, queued and in-flight jobs run to completion, then the
// workers exit. If ctx expires first, the remaining jobs are aborted via
// their Interrupt-threaded contexts and Shutdown returns ctx.Err.
// Shutdown is idempotent; concurrent calls share the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.jobs)
		s.log.Info("service draining", "queued", s.depth.Load())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.stopped.Store(true)
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.abort() // hard-cancel in-flight analyses
		<-done
		return fmt.Errorf("service: drain deadline exceeded, %w", ctx.Err())
	}
}

// Stats is the operational snapshot served by /healthz and /readyz.
type Stats struct {
	Status string `json:"status"` // "ok", "draining" or "stopped"
	// Draining mirrors Status for probes that only read booleans: true
	// from the moment Shutdown begins.
	Draining   bool        `json:"draining"`
	UptimeSec  float64     `json:"uptimeSec"`
	Workers    int         `json:"workers"`
	BusyWork   int64       `json:"busyWorkers"`
	QueueDepth int64       `json:"queueDepth"`
	QueueCap   int         `json:"queueCap"`
	Cache      cache.Stats `json:"cache"`
}

// Stats returns the current operational snapshot.
func (s *Server) Stats() Stats {
	draining := s.Drained()
	status := "ok"
	if draining {
		status = "draining"
	}
	if s.stopped.Load() {
		status = "stopped"
	}
	return Stats{
		Status:     status,
		Draining:   draining,
		UptimeSec:  s.clk.Since(s.start).Seconds(),
		Workers:    s.cfg.Workers,
		BusyWork:   s.busy.Load(),
		QueueDepth: s.depth.Load(),
		QueueCap:   s.cfg.QueueDepth,
		Cache:      s.cache.Stats(),
	}
}
