package cluster

// The request router: an HTTP front for N refidemd replicas. Requests
// are routed by *program identity* — the router parses full-program
// requests just far enough to compute their content fingerprint, so a
// program and every delta against it (which carries that fingerprint as
// its Base) land on the same replica and the delta finds its base
// registered. Placement is the ring's bounded-load pick; health probes
// eject replicas that stop answering /healthz and readmit them when they
// recover; transport failures fail over along the ring's deterministic
// successor order. Replica-answered errors (400, 404, 503, ...) are
// re-served byte-identically — only transport errors fail over, so a bad
// request does not hammer every replica in turn.

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"refidem/internal/api"
	"refidem/internal/api/client"
	"refidem/internal/ir"
	"refidem/internal/lang"
	"refidem/internal/lru"
)

// maxRequestBody mirrors the service's request-body bound.
const maxRequestBody = 4 << 20

// Replica names one backend refidemd.
type Replica struct {
	// Name identifies the replica on the ring and in metrics; it must be
	// unique and stable across routers (placement hashes it).
	Name string
	// URL is the replica's base URL, e.g. "http://127.0.0.1:8347".
	URL string
}

// Config parameterizes a Router. The zero value of every field selects
// the documented default.
type Config struct {
	// Replicas is the backend set. Placement depends only on the Names.
	Replicas []Replica
	// VNodes is the virtual-node count per replica (0 selects
	// DefaultVNodes).
	VNodes int
	// LoadFactor bounds per-replica load under the bounded-load rule: a
	// replica is skipped (for this request) when its in-flight count
	// exceeds LoadFactor times the fair share. 0 selects 1.25; values
	// below 1 are raised to 1.
	LoadFactor float64
	// ProbeInterval is the health-probe period (0 selects 500ms;
	// negative disables probing — replicas then stay alive forever and
	// only per-request failover skips them).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (0 selects 1s).
	ProbeTimeout time.Duration
	// FailAfter is how many consecutive probe failures eject a replica
	// (0 selects 2).
	FailAfter int
	// Client, when set, overrides the HTTP client used for proxying and
	// probes (tests inject httptest transports). nil uses each replica
	// client's default.
	Client *http.Client
}

func (c Config) normalized() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = 1.25
	}
	if c.LoadFactor < 1 {
		c.LoadFactor = 1
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	return c
}

// replica is one backend's runtime state.
type replica struct {
	name string
	url  string
	c    *client.Client

	alive    atomic.Bool
	fails    atomic.Int32
	inflight atomic.Int64
	proxied  atomic.Int64
}

// Router proxies the /v1 API across a replica set. Construct with New,
// serve Handler, stop the prober with Close.
type Router struct {
	cfg  Config
	ring *Ring
	// reps is sorted by name; byName indexes it. Both are immutable
	// after New.
	reps   []*replica
	byName map[string]*replica
	// routes caches full-program sources' placement keys (routeKey).
	routes *lru.Cache[string, string]

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// Counters, rendered by RenderMetricz.
	labelRequests    atomic.Int64
	simulateRequests atomic.Int64
	batchCalls       atomic.Int64
	badRequests      atomic.Int64
	failovers        atomic.Int64
	boundedSkips     atomic.Int64
	noReplica        atomic.Int64
	ejections        atomic.Int64
	readmissions     atomic.Int64
}

// New builds a router over cfg's replicas and starts the health prober
// (unless probing is disabled). Every replica starts alive.
func New(cfg Config) (*Router, error) {
	cfg = cfg.normalized()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas configured")
	}
	names := make([]string, 0, len(cfg.Replicas))
	byName := make(map[string]*replica, len(cfg.Replicas))
	for _, rc := range cfg.Replicas {
		if rc.Name == "" || rc.URL == "" {
			return nil, fmt.Errorf("cluster: replica needs both name and url (got %q, %q)", rc.Name, rc.URL)
		}
		if byName[rc.Name] != nil {
			return nil, fmt.Errorf("cluster: duplicate replica name %q", rc.Name)
		}
		rep := &replica{name: rc.Name, url: rc.URL, c: client.New(rc.URL)}
		if cfg.Client != nil {
			rep.c.HTTP = cfg.Client
		}
		rep.alive.Store(true)
		byName[rc.Name] = rep
		names = append(names, rc.Name)
	}
	rt := &Router{
		cfg:    cfg,
		ring:   NewRing(names, cfg.VNodes),
		byName: byName,
		routes: lru.New[string, string](routeKeyCacheCap),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	// Ring members are sorted; keep reps in the same order for
	// deterministic metrics rendering.
	for _, n := range rt.ring.Members() {
		rt.reps = append(rt.reps, byName[n])
	}
	if cfg.ProbeInterval > 0 {
		go rt.probeLoop()
	} else {
		close(rt.done)
	}
	return rt, nil
}

// Close stops the health prober. Idempotent.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	<-rt.done
}

// probeLoop polls every replica's /healthz each ProbeInterval,
// sequentially in name order. FailAfter consecutive failures eject a
// replica; one success readmits it.
func (rt *Router) probeLoop() {
	defer close(rt.done)
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
		}
		for _, rep := range rt.reps {
			ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
			_, err := rep.c.Health(ctx)
			cancel()
			if err != nil {
				if fails := rep.fails.Add(1); int(fails) >= rt.cfg.FailAfter && rep.alive.CompareAndSwap(true, false) {
					rt.ejections.Add(1)
				}
				continue
			}
			rep.fails.Store(0)
			if rep.alive.CompareAndSwap(false, true) {
				rt.readmissions.Add(1)
			}
		}
	}
}

// RouteKey computes a request's placement key: the program's content
// fingerprint when it can be determined (parsing full-program requests,
// reusing the Base fingerprint of delta requests), so a base program and
// its deltas share a replica and the delta finds its base registered.
// Unparseable programs key on their raw text — the replica will answer
// the 400 and there is nothing to co-locate.
func RouteKey(req api.Request) string {
	switch {
	case req.Base != "":
		return "fp:" + req.Base
	case req.Example != "":
		return "example:" + req.Example
	default:
		if p, err := lang.Parse(req.Program); err == nil {
			fp := ir.FingerprintOf(p)
			return "fp:" + hex.EncodeToString(fp[:])
		}
		return "src:" + req.Program
	}
}

// routeKeyCacheCap bounds the router's source→placement-key LRU. Keying
// a full-program request means parsing it; under skewed popularity the
// same sources recur constantly, and the parse — not the proxying — is
// the router's dominant per-request cost.
const routeKeyCacheCap = 4096

// routeKey is RouteKey through the router's source→key cache.
func (rt *Router) routeKey(req api.Request) string {
	if req.Base != "" || req.Example != "" || req.Program == "" {
		return RouteKey(req) // cheap cases: no parse involved
	}
	if key, ok := rt.routes.Get(req.Program); ok {
		return key
	}
	key := RouteKey(req)
	rt.routes.Put(req.Program, key)
	return key
}

// sequence returns the alive replicas in the key's failover order, with
// the bounded-load pick rotated to the front: if the ring owner's
// in-flight count exceeds LoadFactor times the fair share, the first
// underloaded successor leads instead (counted as a bounded skip).
// Sticky requests (deltas, whose base registry lives on the owner) skip
// the rotation: placement beats balance when only the owner can answer
// without a 404.
func (rt *Router) sequence(key string, sticky bool) []*replica {
	names := rt.ring.Sequence(key, make([]string, 0, len(rt.reps)))
	out := make([]*replica, 0, len(names))
	total := int64(0)
	for _, n := range names {
		rep := rt.byName[n]
		if rep.alive.Load() {
			out = append(out, rep)
			total += rep.inflight.Load()
		}
	}
	if len(out) <= 1 || sticky {
		return out
	}
	// Bounded-load capacity: ceil(LoadFactor * (total+1) / alive).
	capacity := int64(rt.cfg.LoadFactor*float64(total+1)/float64(len(out))) + 1
	for j, rep := range out {
		if rep.inflight.Load() < capacity {
			if j > 0 {
				rt.boundedSkips.Add(int64(j))
				lead := out[j]
				copy(out[1:j+1], out[:j])
				out[0] = lead
			}
			break
		}
	}
	return out
}

// Handler returns the router's HTTP API — the same /v1 surface as a
// replica (label, simulate, timeline, batch) plus the router's own
// /healthz and /metricz.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/label", func(w http.ResponseWriter, r *http.Request) {
		rt.labelRequests.Add(1)
		rt.handleOp(w, r, api.OpLabel, "/v1/label")
	})
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		rt.simulateRequests.Add(1)
		path := "/v1/simulate"
		if r.URL.Query().Get("timeline") == "1" {
			path += "?timeline=1"
		}
		rt.handleOp(w, r, api.OpSimulate, path)
	})
	mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		doc, err := json.MarshalIndent(rt.Health(), "", "  ")
		if err != nil {
			api.WriteError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(doc, '\n'))
	})
	mux.HandleFunc("GET /metricz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, rt.RenderMetricz())
	})
	return mux
}

func (rt *Router) handleOp(w http.ResponseWriter, r *http.Request, op, path string) {
	var req api.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		rt.badRequests.Add(1)
		api.WriteError(w, fmt.Errorf("%w: %v", api.ErrBadRequest, err))
		return
	}
	req.Op = op
	resp, err := rt.proxy(r.Context(), path, req)
	if err != nil {
		api.WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(resp)
}

// proxy routes one request and returns the winning replica's response
// bytes. Replica-answered errors return as *api.RemoteError (re-served
// verbatim by the caller); transport errors fail over along the
// sequence.
func (rt *Router) proxy(ctx context.Context, path string, req api.Request) ([]byte, error) {
	seq := rt.sequence(rt.routeKey(req), req.Base != "")
	if len(seq) == 0 {
		rt.noReplica.Add(1)
		return nil, fmt.Errorf("%w: no live replica", api.ErrOverloaded)
	}
	var lastErr error
	for i, rep := range seq {
		if i > 0 {
			rt.failovers.Add(1)
		}
		rep.inflight.Add(1)
		resp, err := rt.postRaw(ctx, rep, path, req)
		rep.inflight.Add(-1)
		if err == nil {
			rep.proxied.Add(1)
			return resp, nil
		}
		var re *api.RemoteError
		if errors.As(err, &re) {
			// The replica is up and answered: its verdict stands. A bad
			// request is bad everywhere; an overload is backpressure the
			// client's backoff handles.
			return nil, err
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The caller went away; trying more replicas helps nobody.
			return nil, err
		}
		lastErr = err
	}
	rt.noReplica.Add(1)
	return nil, fmt.Errorf("%w: no replica reachable (last error: %v)", api.ErrOverloaded, lastErr)
}

// postRaw posts the request document to one replica. The timeline path
// is not part of the typed client, so the router posts JSON itself
// through the replica client's transport.
func (rt *Router) postRaw(ctx context.Context, rep *replica, path string, req api.Request) ([]byte, error) {
	if !strings.Contains(path, "?") {
		switch req.Op {
		case api.OpLabel:
			return rep.c.Label(ctx, req)
		case api.OpSimulate:
			return rep.c.Simulate(ctx, req)
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+path, strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := rep.c.HTTP.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, api.ErrorFromStatus(resp.StatusCode, resp.Header.Get("Retry-After"), b)
	}
	return b, nil
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt.batchCalls.Add(1)
	var batch api.BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		rt.badRequests.Add(1)
		api.WriteError(w, fmt.Errorf("%w: %v", api.ErrBadRequest, err))
		return
	}
	if len(batch.Requests) == 0 {
		api.WriteError(w, fmt.Errorf("%w: empty batch", api.ErrBadRequest))
		return
	}
	// Items route independently (different programs live on different
	// replicas) and concurrently, mirroring the single-node batch
	// semantics: item failures are per-item error documents, in order.
	out := api.BatchResponse{Responses: make([]json.RawMessage, len(batch.Requests))}
	var wg sync.WaitGroup
	for i := range batch.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := batch.Requests[i]
			path := "/v1/label"
			if req.Op == api.OpSimulate {
				path = "/v1/simulate"
			}
			resp, err := rt.proxy(r.Context(), path, req)
			if err != nil {
				doc, _ := json.Marshal(api.ErrorDoc{Error: err.Error()})
				out.Responses[i] = doc
				return
			}
			out.Responses[i] = resp
		}(i)
	}
	wg.Wait()
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		api.WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(enc, '\n'))
}

// Health is the router's /healthz document.
type Health struct {
	// Status is "ok" while at least one replica is alive, "degraded"
	// otherwise.
	Status string `json:"status"`
	// Replicas reports each backend, in name order.
	Replicas []ReplicaHealth `json:"replicas"`
}

// ReplicaHealth is one replica's row in the router's health document.
type ReplicaHealth struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
}

// Health snapshots the router's view of the replica set.
func (rt *Router) Health() Health {
	h := Health{Status: "degraded"}
	for _, rep := range rt.reps {
		alive := rep.alive.Load()
		if alive {
			h.Status = "ok"
		}
		h.Replicas = append(h.Replicas, ReplicaHealth{Name: rep.name, URL: rep.url, Alive: alive})
	}
	return h
}

// RenderMetricz renders the router's /metricz document: fixed-order
// counters, then one block per replica in name order.
func (rt *Router) RenderMetricz() string {
	var b strings.Builder
	w := func(name string, v int64) { fmt.Fprintf(&b, "%s %d\n", name, v) }
	w("router_requests_label", rt.labelRequests.Load())
	w("router_requests_simulate", rt.simulateRequests.Load())
	w("router_requests_batch_calls", rt.batchCalls.Load())
	w("router_requests_bad", rt.badRequests.Load())
	w("router_failovers", rt.failovers.Load())
	w("router_bounded_skips", rt.boundedSkips.Load())
	w("router_no_replica", rt.noReplica.Load())
	w("router_probe_ejections", rt.ejections.Load())
	w("router_probe_readmissions", rt.readmissions.Load())
	for _, rep := range rt.reps {
		alive := int64(0)
		if rep.alive.Load() {
			alive = 1
		}
		w("replica_"+rep.name+"_alive", alive)
		w("replica_"+rep.name+"_proxied", rep.proxied.Load())
		w("replica_"+rep.name+"_inflight", rep.inflight.Load())
	}
	return b.String()
}
