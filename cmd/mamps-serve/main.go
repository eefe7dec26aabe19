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
// The flags are deployment settings only; the SLO objectives, the
// flight-recorder size and the profile rates are fixed in
// internal/service.
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
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	logger := obs.NewLogger(os.Stderr, level, *logJSON)

	var runs *runlog.Registry
	if *runlogDir != "" {
		runs, err = runlog.Open(*runlogDir, runlog.Options{
			MaxRecords: *runlogMax,
			MaxAge:     *runlogAge,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer runs.Close()
		log.Printf("run registry at %s (%d records)", *runlogDir, runs.Len())
	}

	srv := service.New(service.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		JobTimeout:    *jobTimeout,
		CacheCapacity: *cacheCap,
		Logger:        logger,
		EnablePprof:   *enablePprof,
		RunLog:        runs,
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
