package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"refidem/internal/service"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files from current output")

// checkGolden compares got against the named golden file, rewriting it
// under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./cmd/refidemd -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func newTestServer(t *testing.T) (*service.Server, *httptest.Server) {
	t.Helper()
	srv := service.New(service.DefaultConfig())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestEndpointsGolden locks the response documents of every JSON
// endpoint — the same byte-determinism guarantee the smoke job checks
// against a live daemon.
func TestEndpointsGolden(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		golden string
		path   string
		body   string
	}{
		{"label_fig2.golden", "/v1/label", `{"example": "fig2", "deps": true}`},
		{"label_fig3.golden", "/v1/label", `{"example": "fig3"}`},
		// A call-containing program through the full service path: the
		// labeling must see through the procedure boundary (the region's
		// references all come from call expansion).
		{"label_calls.golden", "/v1/label",
			`{"program": "program svc_calls\nvar a[32]\nvar b[32]\nvar s\nproc bump(x) {\n  a[2 * x] = b[x] + 1\n  s = s + b[x]\n}\nregion r loop i = 0 to 7 {\n  liveout a, s\n  call bump(i)\n}\n"}`},
		{"simulate_fig2.golden", "/v1/simulate", `{"example": "fig2", "procs": 8, "capacity": 64}`},
		{"batch_mixed.golden", "/v1/batch", `{"requests": [
			{"op": "label", "example": "fig1"},
			{"op": "simulate", "example": "fig1"},
			{"op": "label", "example": "nope"}
		]}`},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			status, body := post(t, ts.URL+tc.path, tc.body)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			checkGolden(t, tc.golden, body)
		})
	}
}

// TestResponsesByteIdenticalOverHTTP re-requests the same document and
// compares bytes, end to end through the HTTP layer.
func TestResponsesByteIdenticalOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"program": "program http_det\nvar a[8]\nregion r loop i = 0 to 7 {\n  a[i] = a[i] + 1\n}\n"}`
	_, first := post(t, ts.URL+"/v1/label", body)
	for i := 0; i < 3; i++ {
		_, again := post(t, ts.URL+"/v1/label", body)
		if !bytes.Equal(first, again) {
			t.Fatal("response bytes differ across identical requests")
		}
	}
}

func TestErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		name   string
		path   string
		body   string
		status int
	}{
		{"bad json", "/v1/label", `{"example":`, http.StatusBadRequest},
		{"unknown field", "/v1/label", `{"exmaple": "fig2"}`, http.StatusBadRequest},
		{"unknown example", "/v1/label", `{"example": "fig9"}`, http.StatusBadRequest},
		{"parse error", "/v1/label", `{"program": "program x\nregion {"}`, http.StatusBadRequest},
		{"empty batch", "/v1/batch", `{"requests": []}`, http.StatusBadRequest},
		{"no input", "/v1/simulate", `{}`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, ts.URL+tc.path, tc.body)
			if status != tc.status {
				t.Errorf("status = %d, want %d (%s)", status, tc.status, body)
			}
			if !bytes.Contains(body, []byte("error")) {
				t.Errorf("error document missing: %s", body)
			}
		})
	}
	// Method and route checks.
	resp, err := http.Get(ts.URL + "/v1/label")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/label = %d, want 405", resp.StatusCode)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d %q", resp.StatusCode, b)
	}
	var health service.Health
	if err := json.Unmarshal(b, &health); err != nil {
		t.Fatalf("healthz body is not JSON: %v\n%s", err, b)
	}
	if health.Status != "ok" || health.Store != "disabled" {
		t.Fatalf("healthz = %+v, want status ok / store disabled (no -store flag)", health)
	}

	if status, _ := post(t, ts.URL+"/v1/label", `{"example": "fig2"}`); status != http.StatusOK {
		t.Fatal("label failed")
	}
	resp, err = http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"requests_label 1", "latency_count 1"} {
		if !strings.Contains(string(b), want) {
			t.Errorf("metricz missing %q:\n%s", want, b)
		}
	}
}

// bootDaemon starts the real daemon on an ephemeral port and returns its
// base URL, the cancel triggering graceful shutdown, the exit channel and
// the stderr buffer.
func bootDaemon(t *testing.T, extraArgs ...string) (string, context.CancelFunc, chan error, *lockedBuffer) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stdout, stderr := &lockedBuffer{}, &lockedBuffer{}
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, extraArgs...)
	go func() {
		done <- runUntil(ctx, args, stdout, stderr)
	}()

	// The daemon prints its ephemeral address once the listener is up.
	deadline := time.Now().Add(10 * time.Second)
	re := regexp.MustCompile(`listening on (http://[^\s]+)`)
	for {
		if m := re.FindStringSubmatch(stdout.String()); m != nil {
			return m[1], cancel, done, stderr
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stopDaemon cancels the daemon and waits for the graceful drain.
func stopDaemon(t *testing.T, cancel context.CancelFunc, done chan error, stderr *lockedBuffer) {
	t.Helper()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with error: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not drain and exit")
	}
}

// TestDaemonLifecycle boots the real daemon on an ephemeral port, labels
// through it, then cancels the context and verifies the graceful drain
// path runs to completion.
func TestDaemonLifecycle(t *testing.T) {
	url, cancel, done, stderr := bootDaemon(t)

	status, body := post(t, url+"/v1/label", `{"example": "fig2"}`)
	if status != http.StatusOK {
		t.Fatalf("label via daemon = %d: %s", status, body)
	}

	stopDaemon(t, cancel, done, stderr)
	if !strings.Contains(stderr.String(), "drained, bye") {
		t.Errorf("graceful drain message missing; stderr: %s", stderr.String())
	}
}

// TestDaemonWarmRestart is the end-to-end durability check the crash smoke
// script runs against a SIGKILLed process: populate a -store daemon, shut
// it down, boot a fresh one on the same directory, and require the same
// responses byte-identically from warm-start hits with zero recomputes.
func TestDaemonWarmRestart(t *testing.T) {
	dir := t.TempDir()
	reqs := []string{
		`{"example": "fig2", "deps": true}`,
		`{"example": "fig3"}`,
	}

	url, cancel, done, stderr := bootDaemon(t, "-store", dir)
	if !strings.Contains(stderr.String(), "store "+dir) {
		t.Errorf("recovery scan not announced; stderr: %s", stderr.String())
	}
	cold := make([][]byte, len(reqs))
	for i, body := range reqs {
		var status int
		if status, cold[i] = post(t, url+"/v1/label", body); status != http.StatusOK {
			t.Fatalf("populate request %d = %d: %s", i, status, cold[i])
		}
	}
	stopDaemon(t, cancel, done, stderr)

	url, cancel, done, stderr = bootDaemon(t, "-store", dir)
	for i, body := range reqs {
		status, warm := post(t, url+"/v1/label", body)
		if status != http.StatusOK {
			t.Fatalf("warm request %d = %d: %s", i, status, warm)
		}
		if !bytes.Equal(warm, cold[i]) {
			t.Fatalf("request %d: warm-restart response differs from the cold bytes", i)
		}
	}
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health service.Health
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Store != "ok" || health.StoreWarmHits != int64(len(reqs)) {
		t.Fatalf("warm health = %+v, want store ok with %d warm hits", health, len(reqs))
	}
	resp, err = http.Get(url + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	metricz, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metricz), "tasks_computed 0\n") {
		t.Error("warm restart recomputed a persisted fingerprint")
	}
	stopDaemon(t, cancel, done, stderr)
}

// TestDaemonRequestTimeout exercises the -request-timeout flag end to end:
// an absurdly small deadline trips on a real compute and answers 504.
func TestDaemonRequestTimeout(t *testing.T) {
	url, cancel, done, stderr := bootDaemon(t, "-request-timeout", "1ns")
	status, body := post(t, url+"/v1/label", `{"example": "fig2"}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", status, body)
	}
	stopDaemon(t, cancel, done, stderr)
}

func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := runUntil(context.Background(), []string{"-nope"}, &out, &out); err == nil {
		t.Error("expected flag error")
	}
}

// lockedBuffer is a concurrency-safe bytes.Buffer: the daemon goroutine
// writes while the test polls.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
