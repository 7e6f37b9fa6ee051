package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"refidem/internal/ir"
	"refidem/internal/store"
)

// storeTestConfig is testConfig plus a filesystem store at dir.
func storeTestConfig(t *testing.T, backend store.Backend) Config {
	t.Helper()
	cfg := testConfig()
	cfg.Store = backend
	cfg.StoreQueueDepth = 64
	return cfg
}

// waitFor polls cond until it holds or the deadline trips.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWarmStartServesPersistedBytes is the durability round trip: a server
// computes and persists, a second server on the same directory answers the
// same requests byte-identically from the warm-start index without a
// single pipeline compute.
func TestWarmStartServesPersistedBytes(t *testing.T) {
	dir := t.TempDir()
	st1, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Op: OpLabel, Example: "fig2", Deps: true},
		{Op: OpSimulate, Example: "fig1", Procs: 4},
	}
	s1 := New(storeTestConfig(t, st1))
	ctx := context.Background()
	want := make([][]byte, len(reqs))
	for i, r := range reqs {
		if want[i], err = s1.Do(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close() // flushes the write-behind queue
	if got := s1.Metrics().SnapshotNow().StoreWrites; got != int64(len(reqs)) {
		t.Fatalf("store writes = %d, want %d", got, len(reqs))
	}
	st1.Close()

	st2, stats, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Valid != len(reqs) || stats.Quarantined != 0 {
		t.Fatalf("recovery stats = %v, want %d valid", stats, len(reqs))
	}
	s2 := New(storeTestConfig(t, st2))
	defer s2.Close()
	if h := s2.Health(); h.StoreWarmEntries != int64(len(reqs)) {
		t.Fatalf("warm entries = %d, want %d", h.StoreWarmEntries, len(reqs))
	}
	for i, r := range reqs {
		got, err := s2.Do(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("request %d: warm-restart response differs from cold-computed bytes", i)
		}
	}
	snap := s2.Metrics().SnapshotNow()
	if snap.Computed != 0 {
		t.Errorf("computed = %d, want 0 (warm restart must not recompute)", snap.Computed)
	}
	if snap.StoreWarmHits != int64(len(reqs)) {
		t.Errorf("warm hits = %d, want %d", snap.StoreWarmHits, len(reqs))
	}
	if h := s2.Health(); h.StoreWarmHits != int64(len(reqs)) || h.StoreWarmEntries != 0 {
		t.Errorf("health after serving = %+v, want all warm entries drained", h)
	}
}

// TestRuntimeStoreHit: the warm-start index is a one-shot snapshot; later
// identical tasks (with the response cache disabled so they re-enter the
// queue) are answered by a backend read, still with zero computes.
func TestRuntimeStoreHit(t *testing.T) {
	dir := t.TempDir()
	st1, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Op: OpLabel, Example: "fig3"}
	s1 := New(storeTestConfig(t, st1))
	want, err := s1.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()
	st1.Close()

	st2, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeTestConfig(t, st2)
	cfg.ResponseCache = -1 // force every repeat back through the queue
	s2 := New(cfg)
	defer s2.Close()
	for i := 0; i < 2; i++ {
		got, err := s2.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: store-served response differs", i)
		}
	}
	snap := s2.Metrics().SnapshotNow()
	if snap.Computed != 0 {
		t.Errorf("computed = %d, want 0", snap.Computed)
	}
	if snap.StoreWarmHits != 1 || snap.StoreHits != 1 {
		t.Errorf("warm/runtime hits = %d/%d, want 1/1", snap.StoreWarmHits, snap.StoreHits)
	}
}

// TestDegradedModeAndRecovery: a backend write fault degrades the store,
// requests keep succeeding memory-only, the health document reports the
// state, and the probe loop restores the store once the fault heals.
func TestDegradedModeAndRecovery(t *testing.T) {
	f := store.NewFaultFS()
	st, _, err := store.OpenWithFaults(t.TempDir(), f)
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeTestConfig(t, st)
	cfg.StoreProbeInterval = 5 * time.Millisecond
	s := New(cfg)
	defer s.Close()
	ctx := context.Background()

	f.Arm(store.FaultENOSPC, 1)
	if _, err := s.Do(ctx, Request{Op: OpLabel, Example: "fig1"}); err != nil {
		t.Fatalf("request must not fail on a store fault: %v", err)
	}
	waitFor(t, "store to degrade", func() bool { return s.StoreStateNow() == StoreDegraded })
	if h := s.Health(); h.Status != "ok" || h.Store != "degraded" {
		t.Fatalf("health while degraded = %+v, want status ok / store degraded", h)
	}
	// Memory-only serving continues; the write for this compute is dropped.
	if _, err := s.Do(ctx, Request{Op: OpLabel, Example: "fig2"}); err != nil {
		t.Fatalf("degraded-mode request failed: %v", err)
	}
	out := s.RenderMetricz()
	for _, want := range []string{"store_enabled 1\n", "store_degraded 1\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("metricz while degraded missing %q", want)
		}
	}

	f.Heal()
	waitFor(t, "probe to recover the store", func() bool { return s.StoreStateNow() == StoreOK })
	snap := s.Metrics().SnapshotNow()
	if snap.StoreDegradedEvents != 1 || snap.StoreRecoveries != 1 {
		t.Errorf("degraded/recovered = %d/%d, want 1/1", snap.StoreDegradedEvents, snap.StoreRecoveries)
	}
	if snap.StoreWriteErrors == 0 {
		t.Error("write error counter = 0, want at least one")
	}
	// Post-recovery computes persist again.
	if _, err := s.Do(ctx, Request{Op: OpLabel, Example: "fig3"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-recovery write-behind", func() bool {
		return s.Metrics().SnapshotNow().StoreWrites >= 1
	})
}

// blockingBackend is a Backend double whose Put blocks until the gate
// opens, for racing Close against in-flight write-behind persistence.
type blockingBackend struct {
	gate      chan struct{}
	puts      atomic.Int64
	closedSrv atomic.Bool // set by the test after Server.Close returns
	lateWrite atomic.Bool
}

func (b *blockingBackend) Put(k store.Key, data []byte) error {
	<-b.gate
	if b.closedSrv.Load() {
		b.lateWrite.Store(true)
	}
	b.puts.Add(1)
	return nil
}
func (b *blockingBackend) Get(k store.Key) ([]byte, error)          { return nil, store.ErrNotFound }
func (b *blockingBackend) Scan(func(store.Key, []byte) error) error { return nil }
func (b *blockingBackend) Probe() error                             { return nil }
func (b *blockingBackend) Quarantined() int64                       { return 0 }
func (b *blockingBackend) Close() error                             { return nil }

// TestCloseRacesWriteBehind: Close must wait for the in-flight write-behind
// record, flush everything already queued, and leave no persistence write
// happening after it returns — with the store goroutines gone.
func TestCloseRacesWriteBehind(t *testing.T) {
	base := runtime.NumGoroutine()
	b := &blockingBackend{gate: make(chan struct{})}
	s := New(storeTestConfig(t, b))
	ctx := context.Background()
	for _, ex := range []string{"fig1", "fig2", "fig3"} {
		if _, err := s.Do(ctx, Request{Op: OpLabel, Example: ex}); err != nil {
			t.Fatal(err)
		}
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a write-behind record was still being persisted")
	case <-time.After(20 * time.Millisecond):
	}
	close(b.gate)
	<-closed
	b.closedSrv.Store(true)

	if got := b.puts.Load(); got != 3 {
		t.Errorf("persisted writes = %d, want 3 (queue flushed before Close returned)", got)
	}
	select {
	case <-s.persistDone:
	default:
		t.Error("persist goroutine still running after Close")
	}
	time.Sleep(10 * time.Millisecond)
	if b.lateWrite.Load() {
		t.Error("a store write completed after Close returned")
	}
	if got := b.puts.Load(); got != 3 {
		t.Errorf("writes grew to %d after Close", got)
	}
	s.Close() // idempotent, must not panic or block
	waitFor(t, "store goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// TestRequestTimeout: a stuck compute trips the configured per-request
// deadline, surfaces as the typed ErrTimeout in-process and as 504 over
// HTTP, and bumps the dedicated counter.
func TestRequestTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.RequestTimeout = 30 * time.Millisecond
	s := New(cfg)

	release := make(chan struct{})
	s.computeHook = func(p *ir.Program) {
		if strings.HasPrefix(p.Name, "svc_slow") {
			<-release
		}
	}
	slow := func(name string) string {
		return strings.Replace(testProgramSrc, "program svc_test", "program "+name, 1)
	}

	_, err := s.Label(context.Background(), Request{Program: slow("svc_slow_a")})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if got := s.Metrics().SnapshotNow().Timeouts; got != 1 {
		t.Errorf("timeout counter = %d, want 1", got)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/label", "application/json",
		strings.NewReader(`{"program":`+mustJSON(slow("svc_slow_b"))+`}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("HTTP status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Errorf("504 body %q does not mention the deadline", body)
	}
	if !strings.Contains(s.RenderMetricz(), "requests_timeout 2\n") {
		t.Error("metricz does not count both timeouts")
	}

	close(release) // unblock the abandoned computes so Close can drain
	s.Close()
	// The computes completed for the record; a fresh server answers fast.
	if _, err := New(testConfig()).Label(context.Background(), Request{Program: slow("svc_slow_c")}); err != nil {
		t.Fatal(err)
	}
}

func mustJSON(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestHealthDocument covers the /healthz JSON body in every store state.
func TestHealthDocument(t *testing.T) {
	plain := New(testConfig())
	defer plain.Close()
	ts := httptest.NewServer(plain.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("healthz content type = %q", ct)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("healthz body is not a Health document: %v", err)
	}
	if h.Status != "ok" || h.Store != "disabled" {
		t.Errorf("memory-only health = %+v, want status ok / store disabled", h)
	}

	st, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	withStore := New(storeTestConfig(t, st))
	defer withStore.Close()
	if h := withStore.Health(); h.Store != "ok" {
		t.Errorf("store-backed health = %+v, want store ok", h)
	}
}
