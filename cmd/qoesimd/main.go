// Command qoesimd serves the simulation stack over HTTP/JSON: submit an
// experiment, scenario, or fleet request, poll or stream its NDJSON run log,
// and fetch the rendered table — byte-identical to what qoesim prints for
// the same request, because both are thin shells over internal/engine.
//
// Usage:
//
//	qoesimd                         # serve on :8080
//	qoesimd -addr :9000 -workers 2 -queue 16
//
// API:
//
//	POST /v1/runs             submit an engine.Request document
//	                          202 accepted · 200 served from result cache ·
//	                          400 bad request · 429 queue full (Retry-After) ·
//	                          503 draining
//	GET  /v1/runs             list retained jobs
//	GET  /v1/runs/{id}        job status
//	GET  /v1/runs/{id}/result rendered table (202 + Retry-After while running)
//	GET  /v1/runs/{id}/events NDJSON run log, replayed then followed live
//	GET  /metrics             Prometheus text v0.0.4: engine, result cache,
//	                          and the shared corpus, script-profile and
//	                          regex-pricing cache counters
//	GET  /healthz             200 ok · 503 while draining
//
// Identical requests hit the deterministic result cache (keyed by document
// SHA-256, seed, options, and code version), so repeated submissions cost
// one simulation and return byte-identical bodies. SIGINT/SIGTERM drains:
// in-flight jobs finish (up to -drain-timeout), new submissions get 503.
//
// Exit codes: 0 clean shutdown, 1 serve/drain failure, 2 usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mobileqoe/internal/engine"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		workers    = flag.Int("workers", 1, "concurrent simulation jobs (each still parallelizes cells per -parallel)")
		queue      = flag.Int("queue", 8, "queued-job bound; a full queue answers 429 with Retry-After")
		parallel   = flag.Int("parallel", 0, "runner workers per job (default GOMAXPROCS)")
		retries    = flag.Int("retries", 0, "extra attempts per failed (experiment, trial) cell")
		timeout    = flag.Duration("timeout", 5*time.Minute, "default per-job wall-clock cap (0 = none)")
		maxTimeout = flag.Duration("max-timeout", 15*time.Minute, "cap on request-supplied timeout_s (0 = uncapped)")
		drainT     = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
		cacheEnt   = flag.Int("cache-entries", 256, "result-cache entry bound")
		cacheMB    = flag.Int("cache-mb", 64, "result-cache byte bound (MiB)")
		history    = flag.Int("history", 512, "finished jobs retained for status queries")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "qoesimd: unexpected arguments: %v\n", flag.Args())
		return 2
	}

	eng := engine.New(engine.Config{
		Tool:               "qoesimd",
		Workers:            *workers,
		QueueDepth:         *queue,
		Parallel:           *parallel,
		Retries:            *retries,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		ResultCacheEntries: *cacheEnt,
		ResultCacheBytes:   int64(*cacheMB) << 20,
		JobHistory:         *history,
		// AllowLocalFiles stays false: a request document must never read
		// files on the serving host.
	})

	srv := newServer(eng)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoesimd: %v\n", err)
		return 1
	}
	hs := &http.Server{Handler: srv}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "qoesimd: serving on %s (%d workers, queue %d)\n",
		ln.Addr(), *workers, *queue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "qoesimd: %v: draining (timeout %v)\n", s, *drainT)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "qoesimd: %v\n", err)
		return 1
	}

	// Graceful drain: stop accepting jobs, finish in-flight ones, then stop
	// the listener. Streaming /events clients of finished jobs terminate
	// naturally when their logs close.
	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	exit := 0
	if err := eng.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "qoesimd: drain: %v (abandoning in-flight jobs)\n", err)
		exit = 1
	}
	eng.Close()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	fmt.Fprintln(os.Stderr, "qoesimd: shut down")
	return exit
}
