package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"refidem/internal/api"
)

// Handler returns the server's HTTP API:
//
//	POST /v1/label             — label a program (Request document)
//	POST /v1/simulate          — label + simulate under seq/HOSE/CASE
//	POST /v1/simulate?timeline=1 — speculation timeline as Chrome trace JSON
//	POST /v1/batch             — up to 256 requests, answered in order
//	GET  /healthz              — liveness + store health (JSON Health document)
//	GET  /metricz              — counters, cache/store stats, latency histogram
//	GET  /debug/tracez         — flight-recorder spans (text; ?format=json)
//
// Responses for identical programs are byte-identical. Overload maps to
// 503 with Retry-After; malformed requests to 400; requests exceeding
// the configured per-request deadline to 504. Every /v1/label and
// /v1/simulate answer, error or not, states AnalysisVersion in the
// api.VersionHeader header, and every successful one its Content-Length;
// when the flight recorder is on, it also carries X-Refidem-Trace-Id.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/label", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.VersionHeader, AnalysisVersion)
		s.handleOp(w, r, OpLabel)
	})
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(api.VersionHeader, AnalysisVersion)
		if r.URL.Query().Get("timeline") == "1" {
			s.handleTimeline(w, r)
			return
		}
		s.handleOp(w, r, OpSimulate)
	})
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /debug/tracez", s.handleTracez)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Always 200 while the listener is up: a degraded store means
		// memory-only serving, not an unhealthy server. Routers and the
		// smoke scripts gate on the JSON body instead.
		doc, err := json.MarshalIndent(s.Health(), "", "  ")
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(doc, '\n'))
	})
	mux.HandleFunc("GET /metricz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.RenderMetricz())
	})
	return mux
}

func (s *Server) handleOp(w http.ResponseWriter, r *http.Request, op string) {
	var req Request
	if !decodeBody(w, r, &req) {
		return
	}
	req.Op = op
	resp, traceID, err := s.DoTraced(r.Context(), req)
	if traceID != 0 {
		// Headers only — the trace ID identifies the request's span on
		// /debug/tracez without touching the response bytes.
		w.Header().Set("X-Refidem-Trace-Id", strconv.FormatUint(traceID, 10))
	}
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(resp)))
	w.Write(resp)
}

// handleTimeline serves POST /v1/simulate?timeline=1: the request's
// speculation timeline as a Chrome trace-event JSON document. The export
// is buffered so an engine failure mid-run answers with a clean error
// document instead of truncated JSON.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeBody(w, r, &req) {
		return
	}
	req.Op = OpSimulate
	var buf bytes.Buffer
	if err := s.SimulateTimeline(r.Context(), req, &buf); err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var batch BatchRequest
	if !decodeBody(w, r, &batch) {
		return
	}
	if len(batch.Requests) == 0 {
		writeError(w, fmt.Errorf("%w: empty batch", ErrBadRequest))
		return
	}
	if len(batch.Requests) > api.MaxBatchItems {
		writeError(w, fmt.Errorf("%w: batch of %d exceeds the %d-item limit",
			ErrBadRequest, len(batch.Requests), api.MaxBatchItems))
		return
	}
	resps, errs := s.Batch(r.Context(), batch.Requests)
	out := BatchResponse{Responses: make([]json.RawMessage, len(resps))}
	for i := range resps {
		if errs[i] != nil {
			doc, _ := json.Marshal(api.ErrorDoc{Error: errs[i].Error()})
			out.Responses[i] = doc
			continue
		}
		out.Responses[i] = resps[i]
	}
	w.Header().Set("Content-Type", "application/json")
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		writeError(w, err)
		return
	}
	w.Write(append(enc, '\n'))
}

// decodeBody parses the request body into dst, answering 400 itself on
// failure.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return false
	}
	return true
}

// writeError maps a service error to its HTTP status and a JSON error
// document per the api taxonomy.
func writeError(w http.ResponseWriter, err error) { api.WriteError(w, err) }
