// Package client is the typed Go client of the analysis service's /v1
// API (internal/api): request marshaling and status-to-error mapping
// back onto the api taxonomy.
//
// Errors returned for non-200 responses are *api.RemoteError values:
// errors.Is(err, api.ErrOverloaded) and friends branch identically to
// the in-process service API, and the server's Retry-After hint rides
// along in RetryAfterSeconds. The client adds nothing to response
// bytes — a Label call returns exactly the document the server wrote, so
// byte-identity oracles can compare responses across transports and
// replicas.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"refidem/internal/api"
)

// maxErrorBody bounds how much of a failed response's body is read for
// the error document.
const maxErrorBody = 64 << 10

// Client speaks the /v1 API against one base URL. The zero value is not
// usable; construct with New. Safe for concurrent use (http.Client is).
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8347".
	Base string
	// HTTP is the underlying HTTP client. New installs a default with a
	// 60-second overall timeout.
	HTTP *http.Client
}

// New returns a client for the server at base (scheme://host:port, no
// trailing slash required). The default transport keeps enough idle
// connections per host for heavily concurrent callers (the benchmark
// driver, the router) to reuse connections instead of churning handshakes —
// net/http's default of 2 serializes exactly the workloads this client
// exists for.
func New(base string) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 256
	tr.MaxIdleConnsPerHost = 256
	return &Client{Base: base, HTTP: &http.Client{Timeout: 60 * time.Second, Transport: tr}}
}

// Label posts the request to /v1/label and returns the response document
// bytes verbatim.
func (c *Client) Label(ctx context.Context, req api.Request) ([]byte, error) {
	return c.post(ctx, "/v1/label", req)
}

// Simulate posts the request to /v1/simulate and returns the response
// document bytes verbatim.
func (c *Client) Simulate(ctx context.Context, req api.Request) ([]byte, error) {
	return c.post(ctx, "/v1/simulate", req)
}

// Do posts the request to the endpoint matching its Op.
func (c *Client) Do(ctx context.Context, req api.Request) ([]byte, error) {
	switch req.Op {
	case api.OpLabel:
		return c.Label(ctx, req)
	case api.OpSimulate:
		return c.Simulate(ctx, req)
	}
	return nil, fmt.Errorf("%w: unknown op %q", api.ErrBadRequest, req.Op)
}

// Batch posts the requests to /v1/batch and returns the per-item raw
// documents in order (failed items are {"error": ...} documents, per the
// wire contract).
func (c *Client) Batch(ctx context.Context, reqs []api.Request) ([]json.RawMessage, error) {
	raw, err := c.post(ctx, "/v1/batch", api.BatchRequest{Requests: reqs})
	if err != nil {
		return nil, err
	}
	var out api.BatchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("bad batch response: %w", err)
	}
	return out.Responses, nil
}

// Health fetches and decodes /healthz. A reachable server always answers
// 200 (a degraded store is reported in the document, not the status), so
// any error here means the server is unreachable or broken — the router's
// health prober treats it as probe failure.
func (c *Client) Health(ctx context.Context) (api.Health, error) {
	var h api.Health
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := c.HTTP.Do(httpReq)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	if err != nil {
		return h, err
	}
	if resp.StatusCode != http.StatusOK {
		return h, api.ErrorFromStatus(resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return h, fmt.Errorf("bad health document: %w", err)
	}
	return h, nil
}

// post marshals req, posts it, and returns the response bytes. Non-200
// statuses map to *api.RemoteError via the taxonomy.
func (c *Client) post(ctx context.Context, path string, req any) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		errBody, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		return nil, api.ErrorFromStatus(resp.StatusCode, resp.Header.Get("Retry-After"), errBody)
	}
	return io.ReadAll(resp.Body)
}
