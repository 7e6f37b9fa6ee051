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
	cfg := service.DefaultConfig()
	cfg.Workers = 2
	cfg.QueueDepth = 64
	var reps []Replica
	var servers []*httptest.Server
	for i := 0; i < n; i++ {
		svc := service.New(cfg)
		t.Cleanup(svc.Close)
		hs := httptest.NewServer(svc.Handler())
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
		"router_probe_ejections", "replica_rep-0_alive", "replica_rep-1_proxied",
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
