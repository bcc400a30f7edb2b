// Command warpd is the long-lived compile-and-run daemon: an HTTP/JSON
// API over the W2 compiler and the Warp simulator, with a
// content-addressed compile cache (compile once, run many) and a
// bounded simulation worker pool with backpressure.
//
// Usage:
//
//	warpd [-addr :8037] [-workers n] [-queue n] [-cache n]
//	      [-timeout 30s] [-max-cycles n] [-log text|json] [-log-level info]
//	      [-flight n] [-debug-addr addr]
//
// Endpoints:
//
//	POST /compile  {"source": "...", "options": {"pipeline": true}}
//	               -> {"program": "<content address>", "cached": bool, ...}
//	POST /run      {"program": "<addr>" | "source": "...",
//	                "inputs": {"z": [...]}, "timeout_ms": 1000,
//	                "backend": "auto"|"sim"|"fast"}
//	               -> {"outputs": {...}, "stats": {"backend": "fast", ...}}
//	               "backend" picks the executor: "auto" (default) runs
//	               the fast dataflow executor, and the cycle-accurate
//	               simulator for a profiled run; "sim" and "fast" force
//	               one.  Every program is verified when it compiles, and
//	               one the verifier refuses is a structured 422.
//	               Per-backend run counts export as
//	               warpd_backend_runs_total{backend=...}.
//	POST /batch    {"requests": [<run request>, ...]}
//	GET  /metrics  Prometheus text format
//	GET  /healthz  liveness
//	GET  /debug/requests             last N requests with span trees (JSON)
//	GET  /debug/requests/{id}/trace  one request as a Chrome trace download
//	GET  /debug/requests/{id}/profile  a profiled run's source-line cycle
//	               profile: gzipped pprof by default (feed to `go tool
//	               pprof`), ?format=text or ?format=folded for the
//	               hot-spot report / flame-graph stacks.  Runs opt in
//	               with "profile": true on the run request.
//
// Saturation returns 429 with a Retry-After derived from the observed
// median run latency and queue depth; per-request deadlines abort the
// simulation itself (the run loop polls the context), so a hung or
// oversized job cannot pin a worker.  SIGINT/SIGTERM drain in-flight
// runs before exit.
//
// Every served request emits one structured log record (request ID,
// outcome, per-stage span durations).  -debug-addr starts a second
// listener exposing net/http/pprof — opt-in, and meant to stay off the
// service port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"warp/internal/service"
	"warp/internal/sim"
)

func main() {
	var (
		addr      = flag.String("addr", ":8037", "listen address")
		workers   = flag.Int("workers", 4, "concurrent simulations")
		queue     = flag.Int("queue", 64, "admission-queue depth beyond the workers")
		cacheSize = flag.Int("cache", 128, "compiled programs kept resident (LRU)")
		timeout   = flag.Duration("timeout", 30*time.Second, "default per-run deadline")
		maxCycles = flag.Int64("max-cycles", 0, fmt.Sprintf("per-run livelock guard (0 = the default, %d)", sim.Controls{}.Limit()))
		arrays    = flag.Int("arrays", 2, "default fabric width for partitioned run requests")
		drain     = flag.Duration("drain", 30*time.Second, "shutdown grace period for in-flight runs")
		logFormat = flag.String("log", "text", "log format: text or json")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		flight    = flag.Int("flight", 64, "requests kept in the /debug/requests flight recorder (negative disables tracing)")
		debugAddr = flag.String("debug-addr", "", "opt-in listener for net/http/pprof (empty = off)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: warpd [flags]")
		flag.Usage()
		os.Exit(2)
	}

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warpd: %v\n", err)
		os.Exit(2)
	}

	svc := service.New(service.Config{
		Workers:        *workers,
		QueueCap:       *queue,
		CacheSize:      *cacheSize,
		DefaultTimeout: *timeout,
		MaxCycles:      *maxCycles,
		Arrays:         *arrays,
		Logger:         logger,
		FlightSize:     *flight,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 2)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", *workers,
			"queue", *queue, "cache", *cacheSize, "flight", *flight)
		errc <- httpSrv.ListenAndServe()
	}()

	var debugSrv *http.Server
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Addr: *debugAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("debug listener (pprof)", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errc <- err
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "grace", drain.String())
	case err := <-errc:
		logger.Error("listener failed", "error", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "error", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(ctx)
	}
	svc.Close() // waits for every admitted simulation to retire
	cs, ps := svc.CacheStats(), svc.PoolStats()
	logger.Info("done", "cache_hits", cs.Hits, "cache_misses", cs.Misses, "runs_completed", ps.Completed)
}

// buildLogger assembles the slog logger the daemon and the service
// share, on stderr so request logs never mix with piped output.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("bad -log %q: want text or json", format)
}
