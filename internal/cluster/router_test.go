package cluster

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"refidem/internal/api"
	"refidem/internal/api/client"
	"refidem/internal/ir"
	"refidem/internal/lang"
	"refidem/internal/service"
	"refidem/internal/workloads"
)

const clusterProg = `program cluster_test
var a[16]
var b[16]
region r0 loop k = 0 to 15 {
  a[k] = (b[k] + 1)
}
region r1 loop k = 0 to 15 {
  b[k] = (a[k] + 2)
}
`

// patchedR1 is the r1 region rewritten; clusterProgPatched is the full
// program with that rewrite applied, for the byte-identity oracle.
const patchedR1 = `region r1 loop k = 0 to 15 {
  b[k] = (a[k] + 3)
}
`

const clusterProgPatched = `program cluster_test
var a[16]
var b[16]
region r0 loop k = 0 to 15 {
  a[k] = (b[k] + 1)
}
` + patchedR1

func fingerprintOf(t testing.TB, src string) string {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fp := ir.FingerprintOf(p)
	return hex.EncodeToString(fp[:])
}

// testReplicaSet boots n in-process refidemd replicas behind httptest
// and returns a router over them plus the replica servers (for
// targeted shutdown). Probing is disabled unless probe > 0.
func testReplicaSet(t testing.TB, n int, probe time.Duration) (*Router, []*httptest.Server) {
	t.Helper()
	return testReplicaSetWith(t, n, probe, replicaConfig(), nil)
}

func replicaConfig() service.Config {
	cfg := service.DefaultConfig()
	cfg.Workers = 2
	cfg.QueueDepth = 64
	return cfg
}

// testReplicaSetWith is testReplicaSet over replicas built from cfg, each
// replica i's handler passed through wrap when it is set.
func testReplicaSetWith(t testing.TB, n int, probe time.Duration, cfg service.Config,
	wrap func(i int, h http.Handler) http.Handler) (*Router, []*httptest.Server) {
	t.Helper()
	var reps []Replica
	var servers []*httptest.Server
	for i := 0; i < n; i++ {
		svc := service.New(cfg)
		t.Cleanup(svc.Close)
		h := svc.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		hs := httptest.NewServer(h)
		t.Cleanup(hs.Close)
		servers = append(servers, hs)
		reps = append(reps, Replica{Name: fmt.Sprintf("rep-%d", i), URL: hs.URL})
	}
	if probe == 0 {
		probe = -1
	}
	rt, err := New(Config{Replicas: reps, ProbeInterval: probe, ProbeTimeout: time.Second, FailAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, servers
}

// singleNode answers the oracle question "what would one replica say?".
func singleNode(t testing.TB) *client.Client {
	t.Helper()
	cfg := service.DefaultConfig()
	cfg.Workers = 2
	svc := service.New(cfg)
	t.Cleanup(svc.Close)
	hs := httptest.NewServer(svc.Handler())
	t.Cleanup(hs.Close)
	return client.New(hs.URL)
}

func routerClient(t testing.TB, rt *Router) *client.Client {
	t.Helper()
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(hs.Close)
	return client.New(hs.URL)
}

// The router must be invisible at the byte level: any request answered
// through it returns exactly the bytes a single node would serve.
func TestRouterByteIdenticalToSingleNode(t *testing.T) {
	rt, _ := testReplicaSet(t, 3, 0)
	via := routerClient(t, rt)
	direct := singleNode(t)
	ctx := context.Background()

	requests := []api.Request{
		{Program: clusterProg},
		{Example: "fig2"},
		{Example: "fig2", Deps: true},
		{Op: api.OpSimulate, Example: "fig2", Procs: 8, Capacity: 64},
	}
	for i, req := range requests {
		got, err := via.Do(ctx, withOp(req))
		if err != nil {
			t.Fatalf("request %d via router: %v", i, err)
		}
		want, err := direct.Do(ctx, withOp(req))
		if err != nil {
			t.Fatalf("request %d direct: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: router bytes differ from single node\nrouter: %s\ndirect: %s", i, got, want)
		}
	}
}

func withOp(req api.Request) api.Request {
	if req.Op == "" {
		req.Op = api.OpLabel
	}
	return req
}

// A base program and a delta against it must land on the same replica:
// the delta finds the base registered and its response is byte-identical
// to fully labeling the patched program.
func TestRouterDeltaAffinity(t *testing.T) {
	rt, _ := testReplicaSet(t, 4, 0)
	via := routerClient(t, rt)
	direct := singleNode(t)
	ctx := context.Background()

	if _, err := via.Label(ctx, api.Request{Program: clusterProg}); err != nil {
		t.Fatalf("base label: %v", err)
	}
	delta := api.Request{
		Op:      api.OpLabel,
		Base:    fingerprintOf(t, clusterProg),
		Patches: []api.RegionPatch{{Region: "r1", Source: patchedR1}},
	}
	got, err := via.Label(ctx, delta)
	if err != nil {
		t.Fatalf("delta via router: %v (base and delta should share a replica)", err)
	}
	want, err := direct.Label(ctx, api.Request{Op: api.OpLabel, Program: clusterProgPatched})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("delta response differs from full label of patched program\ndelta: %s\nfull:  %s", got, want)
	}
	if RouteKey(api.Request{Program: clusterProg}) != RouteKey(delta) {
		t.Fatal("base and delta compute different route keys")
	}

	// A replica decodes the base's hex case-insensitively, so an
	// upper-case base names the same registered program and must be
	// placed with it.
	upper := delta
	upper.Base = strings.ToUpper(delta.Base)
	got, err = via.Label(ctx, upper)
	if err != nil {
		t.Fatalf("upper-case delta via router: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("upper-case delta response differs from full label of patched program\ndelta: %s\nfull:  %s", got, want)
	}

	// A delta against a built-in example's fingerprint must land where
	// the example was labeled. The patch replays the first region.
	for _, name := range []string{"fig2", "buts"} {
		first, err := via.Label(ctx, api.Request{Op: api.OpLabel, Example: name})
		if err != nil {
			t.Fatalf("%s label via router: %v", name, err)
		}
		var doc api.LabelResponse
		if err := json.Unmarshal(first, &doc); err != nil {
			t.Fatal(err)
		}
		p, err := workloads.Example(name)
		if err != nil {
			t.Fatal(err)
		}
		d := api.Request{Op: api.OpLabel, Base: doc.Fingerprint,
			Patches: []api.RegionPatch{{Region: p.Regions[0].Name, Source: p.Regions[0].Format()}}}
		got, err := via.Label(ctx, d)
		if err != nil {
			t.Fatalf("delta against %s via router: %v (example and delta should share a replica)", name, err)
		}
		if _, err := direct.Label(ctx, api.Request{Op: api.OpLabel, Example: name}); err != nil {
			t.Fatal(err)
		}
		want, err := direct.Label(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("delta against %s differs from a single node's\nrouter: %s\ndirect: %s", name, got, want)
		}
	}
}

// Replica-answered errors must be re-served verbatim, with the replica's
// status and Retry-After semantics surviving the hop.
func TestRouterErrorsVerbatim(t *testing.T) {
	rt, _ := testReplicaSet(t, 3, 0)
	via := routerClient(t, rt)
	direct := singleNode(t)
	ctx := context.Background()

	for _, req := range []api.Request{
		{Op: api.OpLabel, Program: "program broken\nnonsense"},
		{Op: api.OpLabel, Base: strings.Repeat("ab", 32)}, // unknown base
	} {
		_, gotErr := via.Label(ctx, req)
		_, wantErr := direct.Label(ctx, req)
		if gotErr == nil || wantErr == nil {
			t.Fatalf("expected errors, got %v / %v", gotErr, wantErr)
		}
		var gre, wre *api.RemoteError
		if !errors.As(gotErr, &gre) || !errors.As(wantErr, &wre) {
			t.Fatalf("errors are not RemoteError: %T / %T", gotErr, wantErr)
		}
		if gre.Msg != wre.Msg || gre.Status != wre.Status {
			t.Fatalf("router error differs from single node:\nrouter: %d %q\ndirect: %d %q",
				gre.Status, gre.Msg, wre.Status, wre.Msg)
		}
	}
	if got := rt.failovers.Load(); got != 0 {
		t.Fatalf("replica-answered errors caused %d failovers; they must not fail over", got)
	}
}

// Transport failures fail over along the ring: with one replica down,
// every request still succeeds and responses stay byte-identical.
func TestRouterFailover(t *testing.T) {
	rt, servers := testReplicaSet(t, 3, 0)
	via := routerClient(t, rt)
	direct := singleNode(t)
	ctx := context.Background()

	servers[1].Close() // rep-1 dies without being ejected: transport errors only

	for i := 0; i < 8; i++ {
		req := api.Request{Op: api.OpLabel, Program: fmt.Sprintf(
			"program failover_%d\nvar a[8]\nregion r0 loop k = 0 to 7 {\n  a[k] = (k + %d)\n}\n", i, i)}
		got, err := via.Label(ctx, req)
		if err != nil {
			t.Fatalf("request %d with rep-1 down: %v", i, err)
		}
		want, err := direct.Label(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: failover response differs from single node", i)
		}
	}
	// 8 distinct programs across 3 replicas: some must have been owned by
	// the dead one and failed over.
	if rt.failovers.Load() == 0 {
		t.Fatal("no failovers recorded; dead replica never owned a key?")
	}
}

// With every replica down the router answers overloaded, not a hang.
func TestRouterAllReplicasDown(t *testing.T) {
	rt, servers := testReplicaSet(t, 2, 0)
	via := routerClient(t, rt)
	for _, s := range servers {
		s.Close()
	}
	_, err := via.Label(context.Background(), api.Request{Op: api.OpLabel, Example: "fig2"})
	var re *api.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if re.Status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", re.Status)
	}
}

// flakyHealth wraps a replica handler and fails /healthz while tripped,
// driving the prober's eject/readmit cycle without killing the server.
type flakyHealth struct {
	inner   http.Handler
	tripped atomic.Bool
}

func (f *flakyHealth) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.tripped.Load() && r.URL.Path == "/healthz" {
		http.Error(w, "probe sink", http.StatusInternalServerError)
		return
	}
	f.inner.ServeHTTP(w, r)
}

func TestRouterProbeEjectionAndReadmission(t *testing.T) {
	cfg := service.DefaultConfig()
	cfg.Workers = 2
	svcA, svcB := service.New(cfg), service.New(cfg)
	t.Cleanup(svcA.Close)
	t.Cleanup(svcB.Close)
	flaky := &flakyHealth{inner: svcB.Handler()}
	hsA := httptest.NewServer(svcA.Handler())
	hsB := httptest.NewServer(flaky)
	t.Cleanup(hsA.Close)
	t.Cleanup(hsB.Close)

	rt, err := New(Config{
		Replicas: []Replica{
			{Name: "rep-a", URL: hsA.URL},
			{Name: "rep-b", URL: hsB.URL},
		},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  time.Second,
		FailAfter:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	aliveOf := func(name string) func() bool {
		return func() bool {
			for _, r := range rt.Health().Replicas {
				if r.Name == name {
					return r.Alive
				}
			}
			t.Fatalf("replica %s missing from health", name)
			return false
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s\nmetricz:\n%s", what, rt.RenderMetricz())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	flaky.tripped.Store(true)
	waitFor("rep-b ejection", func() bool { return !aliveOf("rep-b")() })
	if rt.ejections.Load() == 0 {
		t.Fatal("ejection not counted")
	}
	// While ejected, requests route around rep-b with no failover (the
	// sequence already excludes it).
	via := routerClient(t, rt)
	before := rt.failovers.Load()
	for i := 0; i < 6; i++ {
		req := api.Request{Op: api.OpLabel, Program: fmt.Sprintf(
			"program eject_%d\nvar a[8]\nregion r0 loop k = 0 to 7 {\n  a[k] = (k + 1)\n}\n", i)}
		if _, err := via.Label(context.Background(), req); err != nil {
			t.Fatalf("request %d during ejection: %v", i, err)
		}
	}
	if got := rt.failovers.Load() - before; got != 0 {
		t.Fatalf("%d failovers while ejected; ejected replicas must not be tried", got)
	}

	flaky.tripped.Store(false)
	waitFor("rep-b readmission", aliveOf("rep-b"))
	if rt.readmissions.Load() == 0 {
		t.Fatal("readmission not counted")
	}
}

// Batch items route independently; failures become in-order error
// documents, same as the single-node batch contract.
func TestRouterBatch(t *testing.T) {
	rt, _ := testReplicaSet(t, 3, 0)
	via := routerClient(t, rt)
	direct := singleNode(t)
	ctx := context.Background()

	reqs := []api.Request{
		{Op: api.OpLabel, Example: "fig2"},
		{Op: api.OpLabel, Program: "program broken\nnonsense"},
		{Op: api.OpSimulate, Example: "fig1", Procs: 4, Capacity: 16},
		{Example: "fig3"}, // no op: a bad request, not a label
	}
	got, err := via.Batch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Batch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch sizes differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("batch item %d differs\nrouter: %s\ndirect: %s", i, got[i], want[i])
		}
	}
}

// The timeline variant proxies with its query string intact.
func TestRouterTimelinePassthrough(t *testing.T) {
	rt, _ := testReplicaSet(t, 2, 0)
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(hs.Close)

	body := `{"op":"simulate","example":"fig2","procs":4,"capacity":16}`
	resp, err := http.Post(hs.URL+"/v1/simulate?timeline=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline via router: %d\n%s", resp.StatusCode, raw)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline response is not JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatalf("timeline document missing traceEvents field:\n%s", raw)
	}
}

func TestRouterHealthAndMetricz(t *testing.T) {
	rt, _ := testReplicaSet(t, 2, 0)
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(hs.Close)

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Replicas) != 2 {
		t.Fatalf("health = %+v", h)
	}

	mz, err := http.Get(hs.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer mz.Body.Close()
	raw, _ := io.ReadAll(mz.Body)
	for _, want := range []string{
		"router_requests_label", "router_failovers", "router_bounded_skips",
		"router_probe_ejections", "router_cache_hits", "router_cache_misses",
		"router_cache_evictions", "router_resend_forwards",
		"replica_rep-0_alive", "replica_rep-1_proxied",
	} {
		if !strings.Contains(string(raw), want+" ") {
			t.Fatalf("metricz missing %q:\n%s", want, raw)
		}
	}
}

// Bounded load rotates an overloaded owner out of the lead — except for
// sticky (delta) requests, which must reach the owner because only it
// holds the base registry entry.
func TestRouterStickySequenceSkipsBoundedLoad(t *testing.T) {
	rt, _ := testReplicaSet(t, 3, 0)
	const key = "fp:sticky-test"
	owner := rt.ring.Owner(key)
	rt.byName[owner].inflight.Store(1000)

	balanced := rt.sequence(key, false)
	if balanced[0].name == owner {
		t.Fatalf("bounded load left overloaded owner %s in the lead", owner)
	}
	if rt.boundedSkips.Load() == 0 {
		t.Fatal("bounded skip not counted")
	}
	sticky := rt.sequence(key, true)
	if sticky[0].name != owner {
		t.Fatalf("sticky sequence leads with %s, want owner %s", sticky[0].name, owner)
	}
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty replica set accepted")
	}
	if _, err := New(Config{Replicas: []Replica{{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"}}, ProbeInterval: -1}); err == nil {
		t.Fatal("duplicate replica names accepted")
	}
	if _, err := New(Config{Replicas: []Replica{{Name: "", URL: "http://x"}}, ProbeInterval: -1}); err == nil {
		t.Fatal("unnamed replica accepted")
	}
}

// A 257-item batch is refused through the router exactly as by a single
// node; the limit itself is accepted.
func TestRouterBatchItemLimit(t *testing.T) {
	rt, _ := testReplicaSet(t, 2, 0)
	via := routerClient(t, rt)
	direct := singleNode(t)
	ctx := context.Background()

	items := make([]api.Request, api.MaxBatchItems+1)
	for i := range items {
		items[i] = api.Request{Op: api.OpLabel, Example: "fig2"}
	}
	_, gotErr := via.Batch(ctx, items)
	_, wantErr := direct.Batch(ctx, items)
	var gre, wre *api.RemoteError
	if !errors.As(gotErr, &gre) || !errors.As(wantErr, &wre) {
		t.Fatalf("oversized batch: want RemoteErrors, got %v / %v", gotErr, wantErr)
	}
	if gre.Status != http.StatusBadRequest || gre.Msg != wre.Msg || gre.Status != wre.Status {
		t.Fatalf("router refusal differs from single node:\nrouter: %d %q\ndirect: %d %q",
			gre.Status, gre.Msg, wre.Status, wre.Msg)
	}
	got, err := via.Batch(ctx, items[:api.MaxBatchItems])
	if err != nil || len(got) != api.MaxBatchItems {
		t.Fatalf("batch at the limit: %d answers, %v", len(got), err)
	}
}

// countV1 wraps replica handlers to count the /v1 requests they receive.
func countV1(n *atomic.Int64) func(int, http.Handler) http.Handler {
	return func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/") {
				n.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}
}

// ownedBy returns a label request for a small generated program whose
// placement key the named replica owns.
func ownedBy(t *testing.T, rt *Router, name, tag string) api.Request {
	t.Helper()
	for i := 0; i < 256; i++ {
		req := api.Request{Op: api.OpLabel, Program: fmt.Sprintf(
			"program %s_%d\nvar a[8]\nregion r0 loop k = 0 to 7 {\n  a[k] = (k + %d)\n}\n", tag, i, i)}
		if rt.ring.Owner(RouteKey(req)) == name {
			return req
		}
	}
	t.Fatalf("no generated program is owned by %s", name)
	return api.Request{}
}

// A repeated label or simulate is answered by the router with no replica
// request, byte-identical to a single node, and batch items share the
// cache.
func TestRouterAnswersRepeats(t *testing.T) {
	var forwarded atomic.Int64
	rt, _ := testReplicaSetWith(t, 3, 0, replicaConfig(), countV1(&forwarded))
	via := routerClient(t, rt)
	direct := singleNode(t)
	ctx := context.Background()

	requests := []api.Request{
		{Op: api.OpLabel, Program: clusterProg},
		{Op: api.OpLabel, Example: "fig2", Deps: true},
		{Op: api.OpSimulate, Example: "fig2", Procs: 8, Capacity: 64},
	}
	for i, req := range requests {
		want, err := direct.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		for round, wantSent := range []int64{1, 0, 0} {
			before := forwarded.Load()
			got, err := via.Do(ctx, req)
			if err != nil {
				t.Fatalf("request %d round %d: %v", i, round, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("request %d round %d: router bytes differ from single node", i, round)
			}
			if sent := forwarded.Load() - before; sent != wantSent {
				t.Fatalf("request %d round %d reached %d replica requests, want %d", i, round, sent, wantSent)
			}
		}
	}
	if hits, misses := rt.cacheHits.Load(), rt.cacheMisses.Load(); hits != 6 || misses != 3 {
		t.Fatalf("cache hits/misses = %d/%d, want 6/3", hits, misses)
	}

	before := forwarded.Load()
	items, err := via.Batch(ctx, requests)
	if err != nil {
		t.Fatal(err)
	}
	wantItems, err := direct.Batch(ctx, requests)
	if err != nil {
		t.Fatal(err)
	}
	for i := range requests {
		if !bytes.Equal(items[i], wantItems[i]) {
			t.Fatalf("batch item %d differs from single node", i)
		}
	}
	if sent := forwarded.Load() - before; sent != 0 {
		t.Fatalf("a batch of repeats reached %d replica requests, want 0", sent)
	}
}

// The cache keys on one program selector, so a request naming two of
// them collides with a cached valid request. It must still reach a
// replica and get its 400, not the cached answer.
func TestRouterValidatesBeforeCacheLookup(t *testing.T) {
	var forwarded atomic.Int64
	rt, _ := testReplicaSetWith(t, 2, 0, replicaConfig(), countV1(&forwarded))
	via := routerClient(t, rt)
	direct := singleNode(t)
	ctx := context.Background()

	valid := api.Request{Op: api.OpLabel, Example: "fig2"}
	bad := api.Request{Op: api.OpLabel, Example: "fig2", Program: clusterProg}
	if api.KeyOf(bad) != api.KeyOf(valid) {
		t.Fatal("the two requests' keys should collide")
	}
	for i := 0; i < 2; i++ {
		if _, err := via.Label(ctx, valid); err != nil {
			t.Fatal(err)
		}
	}
	before := forwarded.Load()
	_, gotErr := via.Label(ctx, bad)
	_, wantErr := direct.Label(ctx, bad)
	var gre, wre *api.RemoteError
	if !errors.As(gotErr, &gre) || !errors.As(wantErr, &wre) {
		t.Fatalf("want RemoteErrors, got %v / %v", gotErr, wantErr)
	}
	if gre.Status != http.StatusBadRequest || gre.Msg != wre.Msg {
		t.Fatalf("router answer differs from single node:\nrouter: %d %q\ndirect: %d %q",
			gre.Status, gre.Msg, wre.Status, wre.Msg)
	}
	if sent := forwarded.Load() - before; sent != 1 {
		t.Fatalf("the invalid request reached %d replica requests, want 1", sent)
	}
	items, err := via.Batch(ctx, []api.Request{bad})
	if err != nil {
		t.Fatal(err)
	}
	wantItems, err := direct.Batch(ctx, []api.Request{bad})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(items[0], wantItems[0]) {
		t.Fatalf("batch item differs from single node\nrouter: %s\ndirect: %s", items[0], wantItems[0])
	}
}

// Timeline exports, deltas and error answers are forwarded every time.
func TestRouterNeverCachesTimelineDeltasOrErrors(t *testing.T) {
	var forwarded atomic.Int64
	rt, _ := testReplicaSetWith(t, 3, 0, replicaConfig(), countV1(&forwarded))
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(hs.Close)
	via := client.New(hs.URL)
	ctx := context.Background()

	if _, err := via.Label(ctx, api.Request{Program: clusterProg}); err != nil {
		t.Fatal(err)
	}
	delta := api.Request{Op: api.OpLabel, Base: fingerprintOf(t, clusterProg),
		Patches: []api.RegionPatch{{Region: "r1", Source: patchedR1}}}
	timeline := func() error {
		resp, err := http.Post(hs.URL+"/v1/simulate?timeline=1", "application/json",
			strings.NewReader(`{"example":"fig2","procs":4,"capacity":16}`))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("timeline status %d", resp.StatusCode)
		}
		return nil
	}
	for _, c := range []struct {
		name    string
		send    func() error
		wantErr bool
	}{
		{"timeline", timeline, false},
		{"delta", func() error { _, err := via.Label(ctx, delta); return err }, false},
		{"unparseable program", func() error {
			_, err := via.Label(ctx, api.Request{Program: "program broken\nnonsense"})
			return err
		}, true},
		{"unknown example", func() error {
			_, err := via.Simulate(ctx, api.Request{Example: "nope"})
			return err
		}, true},
		{"unknown base", func() error {
			_, err := via.Label(ctx, api.Request{Base: strings.Repeat("cd", 32)})
			return err
		}, true},
	} {
		for round := 0; round < 2; round++ {
			before := forwarded.Load()
			if err := c.send(); (err != nil) != c.wantErr {
				t.Fatalf("%s round %d: error %v, want error %v", c.name, round, err, c.wantErr)
			}
			if sent := forwarded.Load() - before; sent != 1 {
				t.Fatalf("%s round %d reached %d replica requests, want 1", c.name, round, sent)
			}
		}
	}
	if n := rt.cache.Len(); n != 1 {
		t.Fatalf("router cache holds %d answers, want 1 (the base label)", n)
	}
}

// After a delta is answered 404 unknown base, the client's resend of the
// full program reaches the delta's replica even though the router holds
// its answer, so the replica registers the base and the retried delta
// succeeds; the recovered program is then answered at the router again.
func TestRouterDeltaRecoveryThroughCache(t *testing.T) {
	var forwarded atomic.Int64
	cfg := replicaConfig()
	cfg.DeltaBases = 1 // one more program on the owner evicts the base
	rt, _ := testReplicaSetWith(t, 3, 0, cfg, countV1(&forwarded))
	via := routerClient(t, rt)
	direct := singleNode(t)
	ctx := context.Background()

	base := api.Request{Op: api.OpLabel, Program: clusterProg}
	first, err := via.Label(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	owner := rt.ring.Owner(RouteKey(base))
	if _, err := via.Label(ctx, ownedBy(t, rt, owner, "evict")); err != nil {
		t.Fatal(err)
	}
	delta := api.Request{Op: api.OpLabel, Base: fingerprintOf(t, clusterProg),
		Patches: []api.RegionPatch{{Region: "r1", Source: patchedR1}}}
	if _, err := via.Label(ctx, delta); !errors.Is(err, api.ErrUnknownBase) {
		t.Fatalf("delta after its base was evicted: %v, want unknown base", err)
	}

	before := forwarded.Load()
	resent, err := via.Label(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resent, first) {
		t.Fatal("resend answered with different bytes")
	}
	if sent := forwarded.Load() - before; sent != 1 || rt.resendForwards.Load() != 1 {
		t.Fatalf("resend reached %d replica requests with %d resend forwards, want 1 and 1",
			sent, rt.resendForwards.Load())
	}
	got, err := via.Label(ctx, delta)
	if err != nil {
		t.Fatalf("retried delta: %v", err)
	}
	want, err := direct.Label(ctx, api.Request{Op: api.OpLabel, Program: clusterProgPatched})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered delta differs from a full label of the patched program")
	}

	before = forwarded.Load()
	if _, err := via.Label(ctx, base); err != nil {
		t.Fatal(err)
	}
	if sent := forwarded.Load() - before; sent != 0 {
		t.Fatalf("a label after the recovery reached %d replica requests, want 0", sent)
	}
}

// statesVersion rewrites the analysis version a replica states.
func statesVersion(version string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		if rec.Header().Get(api.VersionHeader) != "" {
			w.Header().Set(api.VersionHeader, version)
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})
}

// Cached bytes belong to one analysis version: once a live replica
// answers with another, the router stops serving hits, and resumes when
// that replica is no longer alive. A replica whose engine runs the trace
// JIT answers with other cycle counts, so it states another version than
// an untraced one and the two never share a cached answer.
func TestRouterVersionMismatchStopsHits(t *testing.T) {
	traced := replicaConfig()
	traced.Engine.Traced = true
	for _, c := range []struct {
		name  string
		other func(h http.Handler) http.Handler
	}{
		{"stated", func(h http.Handler) http.Handler { return statesVersion("refidem-analysis/other", h) }},
		{"traced", func(http.Handler) http.Handler {
			svc := service.New(traced)
			t.Cleanup(svc.Close)
			return svc.Handler()
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var forwarded atomic.Int64
			count := countV1(&forwarded)
			rt, _ := testReplicaSetWith(t, 2, 0, replicaConfig(), func(i int, h http.Handler) http.Handler {
				if i == 1 {
					h = c.other(h)
				}
				return count(i, h)
			})
			via := routerClient(t, rt)
			ctx := context.Background()

			x := ownedBy(t, rt, "rep-0", "x")
			y := ownedBy(t, rt, "rep-1", "y")
			send := func(req api.Request) int64 {
				t.Helper()
				before := forwarded.Load()
				if _, err := via.Label(ctx, req); err != nil {
					t.Fatal(err)
				}
				return forwarded.Load() - before
			}
			if send(x) != 1 || send(x) != 0 {
				t.Fatal("a repeat before any version disagreement was not answered at the router")
			}
			send(y) // rep-1 answers with the other version
			if sent := send(x); sent != 1 {
				t.Fatalf("a repeat while rep-1 states another version reached %d replica requests, want 1", sent)
			}
			if sent := send(y); sent != 1 {
				t.Fatalf("a repeat of rep-1's answer reached %d replica requests, want 1", sent)
			}
			rt.byName["rep-1"].alive.Store(false)
			if sent := send(x); sent != 0 {
				t.Fatalf("a repeat with only agreeing replicas alive reached %d replica requests, want 0", sent)
			}
		})
	}
}
