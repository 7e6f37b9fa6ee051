package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"refidem/internal/api/client"
	"refidem/internal/cluster"
	"refidem/internal/obs"
	"refidem/internal/service"
)

// serverConfig is refidemd's flag defaults: 8 shards of 64 programs, a
// 1024-deep queue in batches of 64, coalescing on, GOMAXPROCS workers, a
// 256-span flight recorder, a 5 s request timeout, memory-only, untraced,
// no ensemble.
func serverConfig() service.Config {
	cfg := service.DefaultConfig()
	cfg.RequestTimeout = 5 * time.Second
	cfg.FlightSpans = 256
	return cfg
}

// stack is one self-hosted deployment on loopback: service replicas, an
// optional router in front of them, and the client the driver uses.
type stack struct {
	servers []*service.Server
	router  *cluster.Router
	stops   []func()
	client  *client.Client
	tr      *tracer
}

// bootStack starts replicas service instances, each behind its own HTTP
// listener, and — with withRouter — a cluster.Router over them (refidem-
// router's defaults). The client talks to the router, or to the single
// replica without one.
func bootStack(replicas int, withRouter bool) (*stack, error) {
	st := &stack{tr: &tracer{epoch: now(), clients: map[int][2]int64{}, flights: map[flightKey]obs.Span{}}}
	var reps []cluster.Replica
	for i := 0; i < replicas; i++ {
		s := service.New(serverConfig())
		st.servers = append(st.servers, s)
		url, stop, err := serve(st.tr.wrap(layerReplica, i, s.Handler()))
		if err != nil {
			st.close()
			return nil, err
		}
		st.stops = append(st.stops, stop)
		reps = append(reps, cluster.Replica{Name: fmt.Sprintf("replica-%d", i), URL: url})
	}
	st.tr.servers = st.servers
	url := reps[0].URL
	if withRouter {
		// The same client a replica client gets by default, plus the tag
		// transport so a traced request keeps its id across the hop.
		proto := client.New(reps[0].URL).HTTP
		rt, err := cluster.New(cluster.Config{Replicas: reps,
			Client: &http.Client{Timeout: proto.Timeout, Transport: &tagTransport{base: proto.Transport}}})
		if err != nil {
			st.close()
			return nil, err
		}
		st.router = rt
		u, stop, err := serve(st.tr.wrap(layerRouter, -1, rt.Handler()))
		if err != nil {
			st.close()
			return nil, err
		}
		st.stops = append(st.stops, stop)
		url = u
	}
	st.client = client.New(url)
	st.client.HTTP.Transport = &tagTransport{base: st.client.HTTP.Transport}
	return st, nil
}

// close stops the listeners, the router's prober and the replicas (which
// drain admitted work), newest first.
func (st *stack) close() {
	if st.client != nil {
		st.client.HTTP.CloseIdleConnections()
	}
	for i := len(st.stops) - 1; i >= 0; i-- {
		st.stops[i]()
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, s := range st.servers {
		s.Close()
	}
}

// serve exposes h on an ephemeral loopback port. stop closes the server
// and waits for its accept loop to return.
func serve(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	return "http://" + ln.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

// routerSkips reads router_bounded_skips from the router's metrics.
func (st *stack) routerSkips() int64 {
	if st.router == nil {
		return 0
	}
	sc := bufio.NewScanner(strings.NewReader(st.router.RenderMetricz()))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "router_bounded_skips "); ok {
			n, _ := strconv.ParseInt(v, 10, 64) // the router renders integers
			return n
		}
	}
	return 0
}

// counters is the sum of the replicas' service counters at one moment.
type counters struct {
	requests, respHits, coalesced, computed       int64
	deltaUnknown, regionsReused, regionsRelabeled int64
	progHits, progMisses                          int64
	boundedSkips                                  int64
}

func (st *stack) counters() counters {
	var c counters
	for _, s := range st.servers {
		m := s.Metrics().SnapshotNow()
		c.requests += m.LabelRequests + m.SimulateRequests
		c.respHits += m.RespHits
		c.coalesced += m.Coalesced
		c.computed += m.Computed
		c.deltaUnknown += m.DeltaUnknownBase
		c.regionsReused += m.RegionsReused
		c.regionsRelabeled += m.RegionsRelabeled
		cs := s.CacheStats()
		c.progHits += cs.Hits
		c.progMisses += cs.Misses
	}
	c.boundedSkips = st.routerSkips()
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		requests: c.requests - o.requests, respHits: c.respHits - o.respHits,
		coalesced: c.coalesced - o.coalesced, computed: c.computed - o.computed,
		deltaUnknown: c.deltaUnknown - o.deltaUnknown, regionsReused: c.regionsReused - o.regionsReused,
		regionsRelabeled: c.regionsRelabeled - o.regionsRelabeled,
		progHits:         c.progHits - o.progHits, progMisses: c.progMisses - o.progMisses,
		boundedSkips: c.boundedSkips - o.boundedSkips,
	}
}

// Tracing. The benchmark's own transports tag each traced request with
// its index and the kind of hop (label, simulate, delta, resend); the
// wrappers around the router and replica handlers record when each hop
// entered and left the handler, and the replicas' flight recorders supply
// the service-side stages, joined by X-Refidem-Trace-Id. Nothing inside
// the servers changes.
const (
	hdrReq       = "X-Perfbench-Req"
	hdrKind      = "X-Perfbench-Kind"
	layerRouter  = "router"
	layerReplica = "replica"
)

type tagKey struct{}

// tag identifies one hop of a traced logical request.
type tag struct {
	id   int
	kind string
}

// tagged returns ctx re-tagged for a hop of the given kind, or ctx itself
// when the request is not traced.
func tagged(ctx context.Context, kind string) context.Context {
	if tg, ok := ctx.Value(tagKey{}).(tag); ok {
		tg.kind = kind
		return context.WithValue(ctx, tagKey{}, tg)
	}
	return ctx
}

// tagTransport copies a traced request's tag from its context into
// headers; untraced requests pass through untouched.
type tagTransport struct{ base http.RoundTripper }

func (t *tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if tg, ok := r.Context().Value(tagKey{}).(tag); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrReq, strconv.Itoa(tg.id))
		r.Header.Set(hdrKind, tg.kind)
	}
	return t.base.RoundTrip(r)
}

// hop is one handler span: a router or replica ServeHTTP call.
type hop struct {
	id         int
	kind       string
	layer      string
	replica    int
	start, end int64 // ns since the tracer epoch
	traceID    uint64
}

type flightKey struct {
	replica int
	traceID uint64
}

// tracer holds a traced window's spans in memory.
type tracer struct {
	on      atomic.Bool
	epoch   time.Time
	servers []*service.Server

	mu      sync.Mutex
	hops    []hop
	clients map[int][2]int64 // request id → client span
	flights map[flightKey]obs.Span
}

func (t *tracer) since() int64 { return now().Sub(t.epoch).Nanoseconds() }

// wrap times a handler's ServeHTTP for tagged requests while tracing is on.
func (t *tracer) wrap(layer string, replica int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(hdrReq))
		if err != nil || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		kind := r.Header.Get(hdrKind)
		if layer == layerRouter {
			r = r.WithContext(context.WithValue(r.Context(), tagKey{}, tag{id: id, kind: kind}))
		}
		start := t.since()
		h.ServeHTTP(w, r)
		end := t.since()
		hp := hop{id: id, kind: kind, layer: layer, replica: replica, start: start, end: end}
		if layer == layerReplica {
			hp.traceID, _ = strconv.ParseUint(w.Header().Get("X-Refidem-Trace-Id"), 10, 64) // absent → 0, never joined
		}
		t.mu.Lock()
		t.hops = append(t.hops, hp)
		t.mu.Unlock()
	})
}

// client records a traced logical request's client span.
func (t *tracer) client(id int, start, end int64) {
	t.mu.Lock()
	t.clients[id] = [2]int64{start, end}
	t.mu.Unlock()
}

// harvest copies the replicas' flight-recorder rings. The driver calls it
// often enough (every harvestEvery requests) that no span it needs is
// overwritten in a 256-span ring.
func (t *tracer) harvest() {
	for i, s := range t.servers {
		spans := s.FlightRecorder().Snapshot()
		t.mu.Lock()
		for _, sp := range spans {
			t.flights[flightKey{i, sp.TraceID}] = sp
		}
		t.mu.Unlock()
	}
}

const harvestEvery = 64
