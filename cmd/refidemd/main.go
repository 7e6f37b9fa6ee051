// Command refidemd serves the reference idempotency analysis over HTTP:
// a long-running daemon wrapping internal/service, so the labeling
// pipeline and the simulator's compiled-region caches are shared across
// requests instead of being rebuilt per CLI invocation.
//
// Endpoints (JSON request/response documents; see internal/service):
//
//	POST /v1/label     {"program": "..."} or {"example": "fig2"}
//	POST /v1/simulate  ... plus optional "procs", "capacity"
//	POST /v1/simulate?timeline=1  speculation timeline (Chrome trace JSON)
//	POST /v1/batch     {"requests": [...]} (up to 256 items)
//	GET  /healthz      liveness + store health (JSON)
//	GET  /metricz      counters, cache/store stats, latency histogram
//	GET  /debug/tracez flight-recorder request spans (text; ?format=json)
//
// Usage:
//
//	refidemd -addr 127.0.0.1:8347
//	refidemd -addr 127.0.0.1:0 -workers 8              # ephemeral port
//	refidemd -store /var/lib/refidem                   # persistent results
//	refidemd -log-level info                           # request logging
//	refidemd -debug-addr 127.0.0.1:0                   # pprof sidecar
//
// With -store, the daemon opens a crash-safe result store in the given
// directory: it warm-starts from surviving records at boot (announcing the
// recovery scan's findings), persists computed responses write-behind, and
// degrades to memory-only serving if the store faults at runtime.
//
// Observability: the flight recorder keeps the last -flight request spans
// (served on /debug/tracez; each response carries X-Refidem-Trace-Id).
// -log-level enables structured request logging (log/slog, one line per
// request; off by default). -debug-addr starts a second listener serving
// net/http/pprof — the profiling surface never shares the serving mux.
//
// The daemon prints "listening on http://HOST:PORT" once ready (scripted
// callers parse it to discover an ephemeral port), shuts down gracefully
// on SIGINT/SIGTERM — in-flight and queued requests drain before exit —
// and rejects work beyond the admission queue with 503 + Retry-After.
// Requests exceeding -request-timeout answer 504.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"refidem/internal/service"
	"refidem/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "refidemd:", err)
		os.Exit(1)
	}
}

// run is the whole daemon behind exit codes; tests drive it directly
// with a pre-cancelled or signal-wired context via runUntil.
func run(args []string, stdout, stderr io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runUntil(ctx, args, stdout, stderr)
}

// parseLevel maps the -log-level flag to a slog level; empty and "off"
// disable request logging entirely.
func parseLevel(s string) (slog.Level, bool, error) {
	switch strings.ToLower(s) {
	case "", "off":
		return 0, false, nil
	case "debug":
		return slog.LevelDebug, true, nil
	case "info":
		return slog.LevelInfo, true, nil
	case "warn":
		return slog.LevelWarn, true, nil
	case "error":
		return slog.LevelError, true, nil
	}
	return 0, false, fmt.Errorf("unknown -log-level %q (want off, debug, info, warn or error)", s)
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// logRequests wraps the API handler with one structured log line per
// request: method, path, status, latency and the flight-recorder trace
// ID when one was assigned. Failed (4xx/5xx) requests log at warn so an
// -log-level warn daemon stays quiet in steady state.
func logRequests(h http.Handler, log *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() //detlint:allow time-now (request log timing never reaches response bytes)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		lvl := slog.LevelInfo
		if sw.status >= 400 {
			lvl = slog.LevelWarn
		}
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"latency_us", time.Since(start).Microseconds(), //detlint:allow time-now (request log timing never reaches response bytes)
		}
		if tid := sw.Header().Get("X-Refidem-Trace-Id"); tid != "" {
			attrs = append(attrs, "trace_id", tid)
		}
		log.Log(r.Context(), lvl, "request", attrs...)
	})
}

// runUntil serves until ctx is cancelled, then drains and returns.
func runUntil(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("refidemd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8347", "listen address (port 0 picks an ephemeral port)")
		cacheCap  = fs.Int("cache", 512, "labeled programs in the program tier (simulate and timeline)")
		respCache = fs.Int("resp-cache", 0, "response byte cache entries (0 = 4x -cache, negative disables)")
		workers   = fs.Int("workers", 0, "compute worker pool size (0 = all cores)")
		queue     = fs.Int("queue", 1024, "admission queue depth (full queue answers 503)")
		batch     = fs.Int("batch", 64, "max tasks per dispatch batch")
		coalesce  = fs.Bool("coalesce", true, "deduplicate identical in-flight requests")
		storeDir  = fs.String("store", "", "persistent result store directory (empty = memory-only)")
		storeQ    = fs.Int("store-queue", 256, "write-behind persistence queue depth")
		reqTO     = fs.Duration("request-timeout", 5*time.Second, "per-request deadline (answers 504; 0 disables)")
		traced    = fs.Bool("traced", false, "run simulate engines with the trace JIT (hot loops execute as guarded superblocks; results identical, cycle counts differ)")
		ensemble  = fs.Bool("ensemble", false, "label through the collaborative dependence ensemble (responses identical, /metricz gains per-member counters)")
		flight    = fs.Int("flight", 256, "flight-recorder span ring capacity for /debug/tracez (0 disables request tracing)")
		logLevel  = fs.String("log-level", "off", "structured request logging level: off, debug, info, warn or error")
		debugAddr = fs.String("debug-addr", "", "separate listen address for net/http/pprof (empty disables; never served on -addr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, logOn, err := parseLevel(*logLevel)
	if err != nil {
		return err
	}

	cfg := service.DefaultConfig()
	cfg.CacheCapacity = *cacheCap
	cfg.ResponseCache = *respCache
	cfg.Workers = *workers
	cfg.QueueDepth = *queue
	cfg.MaxBatch = *batch
	cfg.Coalesce = *coalesce
	cfg.StoreQueueDepth = *storeQ
	cfg.RequestTimeout = *reqTO
	cfg.Engine.Traced = *traced
	cfg.Ensemble = *ensemble
	cfg.FlightSpans = *flight
	var backend *store.FS
	if *storeDir != "" {
		var stats store.RecoveryStats
		var err error
		backend, stats, err = store.Open(*storeDir)
		if err != nil {
			return fmt.Errorf("opening store %s: %w", *storeDir, err)
		}
		fmt.Fprintf(stderr, "refidemd: store %s: %s\n", *storeDir, stats)
		cfg.Store = backend
	}
	srv := service.New(cfg)

	closeAll := func() {
		srv.Close() // flushes write-behind persistence before the backend closes
		if backend != nil {
			backend.Close()
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		closeAll()
		return err
	}
	handler := srv.Handler()
	if logOn {
		handler = logRequests(handler, slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level})))
	}
	httpSrv := &http.Server{Handler: handler}

	// The pprof sidecar: its own listener and mux, so the profiling
	// surface is reachable only where -debug-addr points (a loopback or
	// ops-only interface), never through the serving port.
	var debugSrv *http.Server
	var debugLn net.Listener
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			closeAll()
			return fmt.Errorf("debug listener: %w", err)
		}
		debugLn = dln
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Handler: dmux}
		go debugSrv.Serve(dln)
		defer debugSrv.Close()
	}
	// The main address announces first: scripted callers parse the first
	// "listening on" line for the serving port.
	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())
	if debugLn != nil {
		fmt.Fprintf(stdout, "debug listening on http://%s\n", debugLn.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		closeAll()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "refidemd: shutting down: draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	// Stop accepting connections and wait for in-flight HTTP requests,
	// then drain the service queue (requests already admitted complete).
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "refidemd: forced shutdown:", err)
	}
	closeAll()
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stderr, "refidemd: drained, bye")
	return nil
}
