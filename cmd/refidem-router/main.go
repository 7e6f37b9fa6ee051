// Command refidem-router fronts N refidemd replicas with a
// consistent-hash router (internal/cluster): requests are routed by
// program fingerprint — a program and every delta against it land on the
// same replica, so delta requests find their base registered — with
// bounded-load balancing, health-probe ejection and deterministic
// failover along the ring's successor order. Because replica responses
// are byte-deterministic, clients cannot tell which replica answered,
// that the router answered a repeat from its own response cache, or that
// a failover happened at all.
//
// Endpoints (the /v1 surface of a replica, plus the router's own):
//
//	POST /v1/label                a repeat from the router cache, else via the owning replica
//	POST /v1/simulate             a repeat from the router cache, else via the owning replica
//	POST /v1/simulate?timeline=1  speculation timeline, proxied
//	POST /v1/batch                items route independently, answered in order
//	GET  /healthz                 router + per-replica liveness (JSON)
//	GET  /metricz                 routing, failover, probe and cache counters
//
// Usage:
//
//	refidem-router -replicas http://127.0.0.1:8347,http://127.0.0.1:8348
//	refidem-router -addr 127.0.0.1:0 -replicas ...     # ephemeral port
//	refidem-router -probe-interval 250ms -fail-after 2 # faster ejection
//
// The router prints "listening on http://HOST:PORT" once ready (scripted
// callers parse it to discover an ephemeral port) and shuts down on
// SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"refidem/internal/cluster"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "refidem-router:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runUntil(ctx, args, stdout, stderr)
}

// runUntil serves until ctx is cancelled; tests drive it directly.
func runUntil(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("refidem-router", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8346", "listen address (port 0 picks an ephemeral port)")
		replicas = fs.String("replicas", "", "comma-separated replica base URLs (required)")
		vnodes   = fs.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per replica on the hash ring")
		load     = fs.Float64("load-factor", 1.25, "bounded-load factor (in-flight per replica vs fair share)")
		probe    = fs.Duration("probe-interval", 500*time.Millisecond, "health probe period (negative disables probing)")
		probeTO  = fs.Duration("probe-timeout", time.Second, "single health probe deadline")
		failN    = fs.Int("fail-after", 2, "consecutive probe failures that eject a replica")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replicas == "" {
		return fmt.Errorf("-replicas is required (comma-separated base URLs)")
	}
	var reps []cluster.Replica
	for _, u := range strings.Split(*replicas, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		// The URL is the stable identity: every router instance given the
		// same -replicas list places every key identically.
		reps = append(reps, cluster.Replica{Name: strings.TrimPrefix(strings.TrimPrefix(u, "http://"), "https://"), URL: u})
	}
	rt, err := cluster.New(cluster.Config{
		Replicas:      reps,
		VNodes:        *vnodes,
		LoadFactor:    *load,
		ProbeInterval: *probe,
		ProbeTimeout:  *probeTO,
		FailAfter:     *failN,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: rt.Handler()}
	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())
	fmt.Fprintf(stderr, "refidem-router: %d replicas on the ring\n", len(reps))

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "refidem-router: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "refidem-router: forced shutdown:", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
