package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"refidem/internal/api"
)

// echoServer serves canned bytes for each /v1 path and records the last
// request body it saw.
func echoServer(t *testing.T, status int, retryAfter string, body string) (*Client, *http.Request, *[]byte) {
	t.Helper()
	var lastReq http.Request
	var lastBody []byte
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lastReq = *r
		b := new(bytes.Buffer)
		b.ReadFrom(r.Body)
		lastBody = b.Bytes()
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	t.Cleanup(hs.Close)
	return New(hs.URL), &lastReq, &lastBody
}

func TestClientReturnsBytesVerbatim(t *testing.T) {
	const doc = `{"op":"label","program":"p"}` + "\n"
	c, req, sent := echoServer(t, http.StatusOK, "", doc)
	got, err := c.Label(context.Background(), api.Request{Op: api.OpLabel, Example: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != doc {
		t.Fatalf("bytes not verbatim: %q", got)
	}
	if req.URL.Path != "/v1/label" || req.Method != http.MethodPost {
		t.Fatalf("posted %s %s", req.Method, req.URL.Path)
	}
	var decoded api.Request
	if err := json.Unmarshal(*sent, &decoded); err != nil || decoded.Example != "fig2" {
		t.Fatalf("request body %q: %v", *sent, err)
	}
}

func TestClientDoDispatchesOnOp(t *testing.T) {
	c, req, _ := echoServer(t, http.StatusOK, "", "{}")
	ctx := context.Background()
	if _, err := c.Do(ctx, api.Request{Op: api.OpSimulate, Example: "fig2"}); err != nil {
		t.Fatal(err)
	}
	if req.URL.Path != "/v1/simulate" {
		t.Fatalf("simulate posted to %s", req.URL.Path)
	}
	if _, err := c.Do(ctx, api.Request{Op: "mystery"}); !errors.Is(err, api.ErrBadRequest) {
		t.Fatalf("unknown op: %v", err)
	}
}

// Non-200 statuses must map back onto the taxonomy sentinels, with the
// server's message and Retry-After hint intact.
func TestClientStatusToErrorMapping(t *testing.T) {
	cases := []struct {
		status     int
		retryAfter string
		body       string
		sentinel   error
		hint       int
	}{
		{http.StatusBadRequest, "", `{"error":"bad request: boom"}`, api.ErrBadRequest, 0},
		{http.StatusNotFound, "", `{"error":"unknown base fingerprint: ab"}`, api.ErrUnknownBase, 0},
		{http.StatusServiceUnavailable, "2", `{"error":"overloaded: admission queue full"}`, api.ErrOverloaded, 2},
		{http.StatusServiceUnavailable, "", `{"error":"server closed"}`, api.ErrClosed, 0},
		{http.StatusGatewayTimeout, "", `{"error":"request deadline exceeded"}`, api.ErrTimeout, 0},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%d_%s", tc.status, tc.body), func(t *testing.T) {
			c, _, _ := echoServer(t, tc.status, tc.retryAfter, tc.body)
			_, err := c.Label(context.Background(), api.Request{Op: api.OpLabel, Example: "fig2"})
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("err %v does not unwrap to %v", err, tc.sentinel)
			}
			var re *api.RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("err is %T, want *api.RemoteError", err)
			}
			var doc api.ErrorDoc
			json.Unmarshal([]byte(tc.body), &doc)
			if re.Msg != doc.Error {
				t.Fatalf("msg %q, want server's %q verbatim", re.Msg, doc.Error)
			}
			if re.RetryAfterSeconds != tc.hint {
				t.Fatalf("RetryAfterSeconds = %d, want %d", re.RetryAfterSeconds, tc.hint)
			}
		})
	}
}

func TestClientBatch(t *testing.T) {
	resp := api.BatchResponse{Responses: []json.RawMessage{
		json.RawMessage(`{"op":"label"}`),
		json.RawMessage(`{"error":"bad request: nope"}`),
	}}
	enc, _ := json.Marshal(resp)
	c, req, sent := echoServer(t, http.StatusOK, "", string(enc))
	got, err := c.Batch(context.Background(), []api.Request{
		{Op: api.OpLabel, Example: "fig2"},
		{Op: api.OpLabel, Program: "broken"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if req.URL.Path != "/v1/batch" {
		t.Fatalf("batch posted to %s", req.URL.Path)
	}
	var decoded api.BatchRequest
	if err := json.Unmarshal(*sent, &decoded); err != nil || len(decoded.Requests) != 2 {
		t.Fatalf("batch body %q: %v", *sent, err)
	}
	if len(got) != 2 || string(got[0]) != `{"op":"label"}` {
		t.Fatalf("batch responses: %v", got)
	}
}

func TestClientHealth(t *testing.T) {
	c, req, _ := echoServer(t, http.StatusOK, "", `{"status":"ok"}`)
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if req.URL.Path != "/healthz" || req.Method != http.MethodGet {
		t.Fatalf("health fetched %s %s", req.Method, req.URL.Path)
	}
	if h.Status != "ok" {
		t.Fatalf("health = %+v", h)
	}
}

func TestClientHealthErrors(t *testing.T) {
	c, _, _ := echoServer(t, http.StatusServiceUnavailable, "", `{"error":"server closed"}`)
	if _, err := c.Health(context.Background()); !errors.Is(err, api.ErrClosed) {
		t.Fatalf("health error: %v", err)
	}
	dead := New("http://127.0.0.1:1")
	dead.HTTP = &http.Client{Timeout: 100 * time.Millisecond}
	if _, err := dead.Health(context.Background()); err == nil {
		t.Fatal("unreachable server's health succeeded")
	}
}

func TestNewTrimsTrailingSlashes(t *testing.T) {
	c := New("http://x//")
	if c.Base != "http://x" {
		t.Fatalf("Base = %q", c.Base)
	}
}
