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
//
// Responses are byte-deterministic, so a repeated request need not leave
// the router: label and simulate answers, deltas included, are cached by
// the same pre-parse key the replicas' response caches use (api.KeyOf),
// and a valid repeat is answered from the router's cache with no parse
// and no replica hop. A delta answer is a pure function of its base
// fingerprint, patches and flags, so a cached one stays exact after the
// owner evicts the base. A miss is parsed only to place it, and the
// client's body bytes are forwarded unchanged. Two contracts bound what a
// hit may serve: a full label of a program whose delta was just answered
// 404 "unknown base" goes to the replica, so the replica registers the
// base again; and no hit is served while a live replica answers with
// another analysis version than the one that produced the bytes. Every
// label and simulate answer states the analysis version that made its
// bytes, as a replica's does.

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"refidem/internal/api"
	"refidem/internal/api/client"
	"refidem/internal/ir"
	"refidem/internal/lang"
	"refidem/internal/lru"
	"refidem/internal/workloads"
)

// The router's two bounded tables. responseCacheCap counts cached label
// and simulate answers: the router keeps them on top of every replica's
// own response cache, which still answers a router miss without
// recomputing, so a small router tier buys most of the hop saving for
// little resident memory. recoveringCap counts the placement keys of
// deltas awaiting their base's resend.
const (
	responseCacheCap = 1024
	recoveringCap    = 256
)

// maxSizedAnswer bounds the Content-Length a replica answer may state and
// still be read into one buffer of exactly that length; a longer stated
// length, or none, is read as a stream, so a bogus length cannot make the
// router allocate before the bytes arrive.
const maxSizedAnswer = 1 << 20

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
	// version is the analysis version the replica stated on its last
	// label or simulate answer (nil until it gives one; "" if the answer
	// carried no version header).
	version atomic.Pointer[string]
}

// noteVersion records the analysis version of the replica's latest answer.
func (rep *replica) noteVersion(v string) {
	if cur := rep.version.Load(); cur == nil || *cur != v {
		rep.version.Store(&v)
	}
}

// cached is one router response-cache entry: the answer's bytes, the
// request's placement key and the analysis version of the replica that
// answered.
type cached struct {
	resp    []byte
	place   string
	version string
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
	// cache holds label and simulate answers, deltas included, by
	// api.KeyOf.
	cache *lru.Cache[api.Key, cached]
	// recovering holds the placement keys of deltas answered 404 unknown
	// base, until a full label of that program succeeds through a replica.
	recovering *lru.Cache[string, struct{}]

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
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
	resendForwards   atomic.Int64
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
		cfg:        cfg,
		ring:       NewRing(names, cfg.VNodes),
		byName:     byName,
		cache:      lru.New[api.Key, cached](responseCacheCap),
		recovering: lru.New[string, struct{}](recoveringCap),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
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
// fingerprint when it can be determined, so a base program and its
// deltas share a replica and the delta finds its base registered.
// Full-program requests are parsed, examples are built from the one
// example table (workloads.Example), and delta requests reuse their Base
// lower-cased: a replica decodes the hex fingerprint case-insensitively,
// and every fingerprint the router computes is lower-case. Unparseable
// programs and unknown examples key on their raw text — the replica will
// answer the 400 and there is nothing to co-locate.
func RouteKey(req api.Request) string {
	switch {
	case req.Base != "":
		return "fp:" + strings.ToLower(req.Base)
	case req.Example != "":
		if p, err := workloads.Example(req.Example); err == nil {
			return fingerprintKey(p)
		}
		return "example:" + req.Example
	default:
		if p, err := lang.Parse(req.Program); err == nil {
			return fingerprintKey(p)
		}
		return "src:" + req.Program
	}
}

func fingerprintKey(p *ir.Program) string {
	fp := ir.FingerprintOf(p)
	return "fp:" + hex.EncodeToString(fp[:])
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

// handleOp serves one label, simulate or timeline request. The body is
// read whole, decoded to place the request and forwarded unchanged; a
// document the router cannot decode is answered 400 here, as a replica
// would.
func (rt *Router) handleOp(w http.ResponseWriter, r *http.Request, op, path string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, api.MaxRequestBody))
	var req api.Request
	if err == nil {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	}
	if err != nil {
		rt.badRequests.Add(1)
		api.WriteError(w, fmt.Errorf("%w: %v", api.ErrBadRequest, err))
		return
	}
	req.Op = op
	resp, version, err := rt.route(r.Context(), path, req, body)
	if version != "" {
		w.Header().Set(api.VersionHeader, version)
	}
	if err != nil {
		api.WriteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(resp)))
	w.Write(resp)
}

// route answers one request, with the analysis version that made the
// answer: from the response cache when the request is a valid label,
// simulate or delta that the cache may serve, otherwise by forwarding body
// to the replicas that own its placement key (body nil marshals req, once
// for every failover attempt). Replica-answered errors return as
// *api.RemoteError with the replica's version, re-served verbatim by the
// caller; they are never cached. Errors the router makes itself carry no
// version. Timeline exports (a query on path) are never cached either, and
// delta misses stay sticky to the owner of their base.
func (rt *Router) route(ctx context.Context, path string, req api.Request, body []byte) ([]byte, string, error) {
	cacheable := !strings.Contains(path, "?") && api.Validate(req) == nil
	var key api.Key
	var e cached
	hit := false
	if cacheable {
		key = api.KeyOf(req)
		e, hit = rt.cache.Get(key)
	}
	place := e.place
	if !hit {
		place = RouteKey(req)
	}
	// A full label of a program whose delta was answered 404 unknown base
	// is the client's resend: it must reach the delta's replica so that
	// replica registers the base again, so it is forwarded, sticky like
	// the delta it recovers.
	resend := false
	if req.Op == api.OpLabel && req.Base == "" {
		_, resend = rt.recovering.Get(place)
	}
	switch {
	case hit && resend:
		rt.resendForwards.Add(1)
	case hit && rt.versionsAgree(e.version):
		rt.cacheHits.Add(1)
		return e.resp, e.version, nil
	case cacheable:
		rt.cacheMisses.Add(1)
	}
	if body == nil {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return nil, "", err
		}
	}
	resp, version, err := rt.forward(ctx, path, place, req.Base != "" || resend, body)
	switch {
	case err == nil:
		if resend {
			rt.recovering.Remove(place)
		}
		if cacheable && version != "" {
			rt.cache.Put(key, cached{resp: resp, place: place, version: version})
		}
	case req.Base != "" && errors.Is(err, api.ErrUnknownBase):
		rt.recovering.Put(place, struct{}{})
	}
	return resp, version, err
}

// versionsAgree reports whether every live replica that has answered
// stated analysis version v on its latest answer.
func (rt *Router) versionsAgree(v string) bool {
	for _, rep := range rt.reps {
		if cur := rep.version.Load(); cur != nil && *cur != v && rep.alive.Load() {
			return false
		}
	}
	return true
}

// forward posts body to the placement key's replicas in failover order
// and returns the first answer with the analysis version it stated.
// Replica-answered errors return as *api.RemoteError, also with the
// version; transport errors fail over along the sequence.
func (rt *Router) forward(ctx context.Context, path, place string, sticky bool, body []byte) ([]byte, string, error) {
	seq := rt.sequence(place, sticky)
	if len(seq) == 0 {
		rt.noReplica.Add(1)
		return nil, "", fmt.Errorf("%w: no live replica", api.ErrOverloaded)
	}
	var lastErr error
	for i, rep := range seq {
		if i > 0 {
			rt.failovers.Add(1)
		}
		rep.inflight.Add(1)
		resp, version, err := rep.post(ctx, path, body)
		rep.inflight.Add(-1)
		if err == nil {
			rep.proxied.Add(1)
			return resp, version, nil
		}
		var re *api.RemoteError
		if errors.As(err, &re) {
			// The replica is up and answered: its verdict stands. A bad
			// request is bad everywhere; an overload is backpressure the
			// client sees as 503 with Retry-After.
			return nil, version, err
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The caller went away; trying more replicas helps nobody.
			return nil, "", err
		}
		lastErr = err
	}
	rt.noReplica.Add(1)
	return nil, "", fmt.Errorf("%w: no replica reachable (last error: %v)", api.ErrOverloaded, lastErr)
}

// post sends one request body to the replica through its client's
// transport and returns the response bytes and the analysis version the
// replica stated, which it also records as the replica's latest. A
// non-200 answer returns as *api.RemoteError.
func (rep *replica) post(ctx context.Context, path string, body []byte) ([]byte, string, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := rep.c.HTTP.Do(httpReq)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	b, err := readAnswer(resp)
	if err != nil {
		return nil, "", err
	}
	version := resp.Header.Get(api.VersionHeader)
	rep.noteVersion(version)
	if resp.StatusCode != http.StatusOK {
		return nil, version, api.ErrorFromStatus(resp.StatusCode, resp.Header.Get("Retry-After"), b)
	}
	return b, version, nil
}

// readAnswer reads a replica answer's body: an answer of stated length up
// to maxSizedAnswer into one buffer of exactly that length, any other as a
// stream. Replicas state the length of every label and simulate answer.
func readAnswer(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxSizedAnswer {
		return io.ReadAll(resp.Body)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, b); err != nil {
		return nil, err
	}
	return b, nil
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt.batchCalls.Add(1)
	var batch api.BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxRequestBody))
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
	if len(batch.Requests) > api.MaxBatchItems {
		api.WriteError(w, fmt.Errorf("%w: batch of %d exceeds the %d-item limit",
			api.ErrBadRequest, len(batch.Requests), api.MaxBatchItems))
		return
	}
	// Items route independently (different programs live on different
	// replicas) and concurrently, mirroring the single-node batch
	// semantics: item failures are per-item error documents, in order.
	// An item carries its own op, which the endpoint it is forwarded to
	// would overwrite, so the router validates it first, as a replica's
	// batch does.
	out := api.BatchResponse{Responses: make([]json.RawMessage, len(batch.Requests))}
	var wg sync.WaitGroup
	for i := range batch.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := batch.Requests[i]
			err := api.Validate(req)
			var resp []byte
			if err == nil {
				path := "/v1/label"
				if req.Op == api.OpSimulate {
					path = "/v1/simulate"
				}
				resp, _, err = rt.route(r.Context(), path, req, nil)
			}
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
	w("router_cache_hits", rt.cacheHits.Load())
	w("router_cache_misses", rt.cacheMisses.Load())
	w("router_cache_evictions", rt.cache.Evictions())
	w("router_resend_forwards", rt.resendForwards.Load())
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
