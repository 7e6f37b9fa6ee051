package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"refidem/internal/service"
)

// lockedBuffer is an io.Writer safe for the daemon goroutine + test reads.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// bootReplicas starts n in-process service instances behind httptest
// servers and returns their base URLs.
func bootReplicas(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		cfg := service.DefaultConfig()
		cfg.Workers = 2
		srv := service.New(cfg)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		urls[i] = ts.URL
	}
	return urls
}

// bootRouter starts the real router on an ephemeral port and returns its
// base URL, the cancel triggering graceful shutdown and the exit channel.
func bootRouter(t *testing.T, args ...string) (string, context.CancelFunc, chan error, *lockedBuffer) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stdout, stderr := &lockedBuffer{}, &lockedBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- runUntil(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), stdout, stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	re := regexp.MustCompile(`listening on (http://[^\s]+)`)
	for {
		if m := re.FindStringSubmatch(stdout.String()); m != nil {
			return m[1], cancel, done, stderr
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("router never announced its address; stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
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

// TestRouterLifecycle boots the real router over live replicas, requires
// a routed label byte-identical to a replica-direct one, then cancels and
// verifies the graceful drain.
func TestRouterLifecycle(t *testing.T) {
	urls := bootReplicas(t, 3)
	router, cancel, done, stderr := bootRouter(t, "-replicas", strings.Join(urls, ","), "-probe-interval", "-1ms")

	status, viaRouter := post(t, router+"/v1/label", `{"example": "fig2", "deps": true}`)
	if status != http.StatusOK {
		t.Fatalf("label via router = %d: %s", status, viaRouter)
	}
	status, direct := post(t, urls[0]+"/v1/label", `{"example": "fig2", "deps": true}`)
	if status != http.StatusOK {
		t.Fatalf("label via replica = %d: %s", status, direct)
	}
	if !bytes.Equal(viaRouter, direct) {
		t.Fatalf("routed response differs from replica-direct response:\n%s\nvs\n%s", viaRouter, direct)
	}

	if status, body := post(t, router+"/v1/label", `{}`); status != http.StatusBadRequest {
		t.Fatalf("empty request via router = %d: %s", status, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("router exited with error: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("router did not shut down")
	}
	if !strings.Contains(stderr.String(), "shutting down") {
		t.Errorf("graceful shutdown message missing; stderr: %s", stderr.String())
	}
}

func TestRouterBadFlags(t *testing.T) {
	var out lockedBuffer
	if err := runUntil(context.Background(), []string{"-nope"}, &out, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := runUntil(context.Background(), nil, &out, &out); err == nil || !strings.Contains(err.Error(), "-replicas") {
		t.Fatalf("missing -replicas not rejected: %v", err)
	}
}
