// Command mamps-serve runs the design flow as a long-running HTTP+JSON
// service: concurrent flow/analysis/DSE requests over a bounded worker
// pool, a content-addressed analysis cache with single-flight
// deduplication, Prometheus-style metrics and graceful drain on
// SIGTERM/SIGINT.
//
//	mamps-serve -addr :8080 -workers 8 -queue 128 -job-timeout 60s
//
// Endpoints:
//
//	POST /v1/analyze  {"workload":{"name":"mjpeg"}, "targetThroughput":1e-4}
//	POST /v1/flow     {"workload":{"name":"mjpeg"}, "tiles":5, "iterations":-1}
//	POST /v1/dse      {"workload":{"name":"mjpeg"}, "maxTiles":6}
//	GET  /v1/runs     (with -runlog: list recorded runs; /{id}, /{id}/trace, /compare?a=&b=)
//	GET  /v1/stats    (with -runlog: per-group percentile summaries of the run history)
//	GET  /healthz
//	GET  /metrics     (includes the mamps_slo_* burn-rate board)
//	POST /debug/dump  (diagnostic bundle: flight-recorder ring + profiles; SIGQUIT does the same)
//
// With -trace-retention, the registry keeps execution traces only for
// runs worth debugging — degraded, deadlocked, errored, regression-
// tagged, tail-slow for their graph key, or the bounded always-keep
// sample — and drops the rest at append time. Every run's index record
// stays resolvable either way.
//
// See README.md for a worked curl session.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mamps/internal/obs"
	"mamps/internal/runlog"
	"mamps/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 4, "worker pool size")
	queue := flag.Int("queue", 64, "job queue depth")
	jobTimeout := flag.Duration("job-timeout", 60*time.Second, "per-job execution timeout")
	cacheCap := flag.Int("cache-entries", 4096, "cache capacity (entries): request results and state-space analyses of every route")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on shutdown")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn or error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of key=value text")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	runlogDir := flag.String("runlog", "", "run registry directory: record every computed run and serve GET /v1/runs")
	runlogMax := flag.Int("runlog-max-records", 10000, "run registry retention: max records kept (0 = unlimited)")
	runlogAge := flag.Duration("runlog-max-age", 0, "run registry retention: max record age (0 = unlimited)")
	traceRetention := flag.Bool("trace-retention", false, "tail-based trace retention: keep traces only for degraded/deadlocked/slow/regressed/sampled runs")
	traceSlowQ := flag.Float64("trace-slow-quantile", 0, "retention: keep traces slower than this quantile of their graph key's history (0: default 0.95)")
	traceMinHist := flag.Int("trace-min-history", 0, "retention: keep every trace until a key has this many runs (0: default 20)")
	traceSample := flag.Int64("trace-sample-every", 0, "retention: always keep every Nth run's trace (0: default 100, negative: disable)")
	sloLatencyTarget := flag.Duration("slo-latency-target", 0, "SLO: analyze/flow/dse latency threshold counted as good (0: default 2s)")
	sloLatencyGoal := flag.Float64("slo-latency-goal", 0, "SLO: target fraction of requests under the latency threshold (0: default 0.99)")
	sloThroughputGoal := flag.Float64("slo-throughput-goal", 0, "SLO: target fraction of runs meeting their requested throughput (0: default 0.95)")
	sloRegressionGoal := flag.Float64("slo-regression-goal", 0, "SLO: target fraction of regression-free runs (0: default 0.99)")
	recorderSize := flag.Int("flight-recorder", 0, "flight recorder ring capacity in events (0: default 256, negative: disable)")
	mutexFraction := flag.Int("mutex-profile-fraction", 0, "with -pprof: runtime mutex profile fraction (0: default 100, negative: leave runtime default)")
	blockRate := flag.Int("block-profile-rate", 0, "with -pprof: runtime block profile rate in ns (0: default 1000000, negative: leave runtime default)")
	profilePeriod := flag.Duration("profile-period", 0, "with -runlog: steady-state period of the background profile sampler (0: default 60s, negative: disable)")
	profileBurnPeriod := flag.Duration("profile-burn-period", 0, "with -runlog: escalated sampler period while an SLO objective burns (0: default 5s)")
	profileRing := flag.Int("profile-ring", 0, "with -runlog: profile captures retained (0: default 4)")
	profileCPU := flag.Duration("profile-cpu-duration", 0, "CPU profile length per capture/dump (0: default 200ms, negative: heap only)")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	logger := obs.NewLogger(os.Stderr, level, *logJSON)

	var runs *runlog.Registry
	if *runlogDir != "" {
		opt := runlog.Options{
			MaxRecords: *runlogMax,
			MaxAge:     *runlogAge,
		}
		if *traceRetention {
			opt.TraceRetention = &runlog.TraceRetention{
				SlowQuantile: *traceSlowQ,
				MinHistory:   *traceMinHist,
				SampleEvery:  *traceSample,
			}
		}
		runs, err = runlog.Open(*runlogDir, opt)
		if err != nil {
			log.Fatal(err)
		}
		defer runs.Close()
		log.Printf("run registry at %s (%d records)", *runlogDir, runs.Len())
	}

	srv := service.New(service.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		JobTimeout:        *jobTimeout,
		CacheCapacity:     *cacheCap,
		Logger:            logger,
		EnablePprof:       *enablePprof,
		RunLog:            runs,
		SLOLatencyTarget:  *sloLatencyTarget,
		SLOLatencyGoal:    *sloLatencyGoal,
		SLOThroughputGoal: *sloThroughputGoal,
		SLORegressionGoal: *sloRegressionGoal,

		FlightRecorderSize:   *recorderSize,
		MutexProfileFraction: *mutexFraction,
		BlockProfileRate:     *blockRate,
		ProfilePeriod:        *profilePeriod,
		ProfileBurnPeriod:    *profileBurnPeriod,
		ProfileRing:          *profileRing,
		ProfileCPUDuration:   *profileCPU,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// SIGQUIT dumps diagnostics (flight recorder + profiles, persisted
	// into the run registry when one is attached) and keeps serving.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			if id := srv.DumpDiagnostics("sigquit"); id != "" {
				log.Printf("diagnostic dump recorded as %s", id)
			} else {
				log.Printf("diagnostic dump captured (not persisted: no -runlog)")
			}
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("mamps-serve listening on %s (%d workers, queue %d, job timeout %s)",
		*addr, *workers, *queue, *jobTimeout)

	select {
	case <-ctx.Done():
		log.Printf("signal received, draining (deadline %s)", *drainTimeout)
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	}

	// Drain: stop accepting HTTP, reject new jobs, finish in-flight ones.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("job drain: %v", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
		os.Exit(1)
	}
	log.Printf("drained cleanly")
}
