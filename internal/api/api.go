// Package api is the versioned wire protocol of the analysis service:
// the /v1 request and response documents, the operation names, and the
// typed error taxonomy mapping service failures to HTTP semantics.
//
// The package exists so that every program speaking the protocol —
// internal/service (the server), internal/api/client (the typed client),
// cmd/refidemd, cmd/refidem-router (which is a client of the replicas
// and a server of the same API) and the perfbench driver — imports one
// definition. Documents are byte-deterministic. The bytes of a label or
// simulate document are defined as json.MarshalIndent(doc, "", "  ")
// plus a newline, a pure function of its values, and are produced by
// one appender (RenderLabel, RenderSimulate in render.go) that its tests
// hold to MarshalIndent; the other documents are encoded by
// encoding/json, which emits struct fields in declaration order. Moving a
// type between packages cannot change the bytes. The golden tests under
// cmd/refidemd pin the /v1 encoding.
//
// Versioning: these types are the v1 wire contract. Compatible
// extension means adding optional (omitempty) request fields — the
// server rejects unknown fields, so clients never send fields a v1
// server lacks silently — and appending response fields, which changes
// bytes and therefore requires a new analysis version for the
// persistent store (see internal/service.AnalysisVersion).
package api

import "encoding/json"

// Operation names. The HTTP endpoints imply them; batch items carry them
// explicitly.
const (
	OpLabel    = "label"
	OpSimulate = "simulate"
)

// MaxProcs bounds Request.Procs; a larger count is a bad request. Every
// simulated processor costs the server its own L1 model, per-processor
// engine state and a private stack frame, so the bound caps what one
// request can make it allocate.
const MaxProcs = 1024

// MaxRequestBody bounds a request document in bytes, and MaxBatchItems
// the items one /v1/batch call may carry. Both protect a server's
// admission queue from a single oversized request; the router enforces
// the same bounds, so a request is refused identically through it.
const (
	MaxRequestBody = 4 << 20
	MaxBatchItems  = 256
)

// VersionHeader names the response header in which a server states its
// analysis version (internal/service.AnalysisVersion, suffixed on a server
// whose engine runs the trace JIT) on every /v1/label and /v1/simulate
// answer. Response bytes are a pure function of the
// request only within one version, so the router serves cached bytes only
// while every live replica answers with the version that produced them.
const VersionHeader = "X-Refidem-Analysis-Version"

// Request is one analysis request. Exactly one of Program (mini-language
// source text), Example (a built-in worked example: fig1, fig2, fig3,
// buts) and Base (a delta request: the fingerprint of a previously
// analyzed base program, plus region Patches) selects the program.
type Request struct {
	// Op is the operation: OpLabel or OpSimulate. The typed endpoints
	// (Label, Simulate, /v1/label, /v1/simulate) fill it in; batch items
	// must set it.
	Op string `json:"op,omitempty"`
	// Program is mini-language source text (see internal/lang).
	Program string `json:"program,omitempty"`
	// Example names a built-in program: fig1, fig2, fig3, buts.
	Example string `json:"example,omitempty"`
	// Base is the hex content fingerprint of a previously analyzed
	// program (the "fingerprint" field of its response document). The
	// server resolves the request's program by applying Patches to the
	// base; regions the patches leave structurally unchanged reuse their
	// cached labeling instead of being recomputed. A server that no
	// longer holds the base answers ErrUnknownBase (HTTP 404) and the
	// client falls back to sending the full program.
	Base string `json:"base,omitempty"`
	// Patches are the region-level edits of a delta request, applied to
	// the base program in order. Only meaningful with Base.
	Patches []RegionPatch `json:"patches,omitempty"`
	// Deps includes the may-dependence list in label responses.
	Deps bool `json:"deps,omitempty"`
	// Procs overrides the simulated processor count (simulate only;
	// 0 keeps the server's base machine). At most MaxProcs.
	Procs int `json:"procs,omitempty"`
	// Capacity overrides the per-segment speculative storage capacity
	// (simulate only; 0 keeps the server's base machine).
	Capacity int `json:"capacity,omitempty"`
}

// RegionPatch replaces (or, for a new region name, appends) one region of
// a delta request's base program.
type RegionPatch struct {
	// Region is the name of the region to replace. A name not present in
	// the base appends the region after the existing ones.
	Region string `json:"region"`
	// Source is the full region block in mini-language syntax
	// ("region NAME loop ... { ... }"). It may only reference variables
	// and procedures the base program declares.
	Source string `json:"source"`
}

// LabelResponse is the document served for label requests. Field order,
// slice ordering and float formatting are all deterministic: identical
// programs yield byte-identical documents.
type LabelResponse struct {
	Op          string           `json:"op"`
	Program     string           `json:"program"`
	Fingerprint string           `json:"fingerprint"`
	Regions     []RegionLabeling `json:"regions"`
}

// RegionLabeling is one region's labeling in a LabelResponse.
type RegionLabeling struct {
	Name             string             `json:"name"`
	Kind             string             `json:"kind"`
	FullyIndependent bool               `json:"fully_independent"`
	IdemFraction     float64            `json:"idem_fraction"`
	Categories       []CategoryFraction `json:"categories,omitempty"`
	Refs             []RefLabel         `json:"refs"`
	Deps             []string           `json:"deps,omitempty"`
}

// CategoryFraction reports the static fraction of one idempotency
// category (only categories with a non-zero fraction appear, in the
// paper's §4.1 order).
type CategoryFraction struct {
	Category string  `json:"category"`
	Fraction float64 `json:"fraction"`
}

// RefLabel is one reference row: the same evidence cmd/idemlabel prints.
type RefLabel struct {
	Ref      string `json:"ref"`
	Segment  string `json:"segment"`
	Label    string `json:"label"`
	Category string `json:"category"`
	// RFW reports re-occurring-first-write status; writes only.
	RFW       *bool `json:"rfw,omitempty"`
	CrossSink bool  `json:"cross_sink"`
}

// SimulateResponse is the document served for simulate requests.
type SimulateResponse struct {
	Op           string     `json:"op"`
	Program      string     `json:"program"`
	Fingerprint  string     `json:"fingerprint"`
	Processors   int        `json:"processors"`
	SpecCapacity int        `json:"spec_capacity"`
	Models       []ModelRow `json:"models"`
	// Verified reports that both speculative runs reproduced the
	// sequential live-out memory state (it is always true in a served
	// response; a mismatch is an error instead).
	Verified bool `json:"verified"`
}

// ModelRow is one execution model's outcome in a SimulateResponse.
type ModelRow struct {
	Mode                string  `json:"mode"`
	Cycles              int64   `json:"cycles"`
	Speedup             float64 `json:"speedup"`
	DynRefs             int64   `json:"dyn_refs"`
	IdemRefs            int64   `json:"idem_refs"`
	Overflows           int64   `json:"overflows"`
	OverflowStallCycles int64   `json:"overflow_stall_cycles"`
	FlowViolations      int64   `json:"flow_violations"`
	ControlViolations   int64   `json:"control_violations"`
	PeakSpecOccupancy   int     `json:"peak_spec_occupancy"`
	UtilizationPct      float64 `json:"utilization_pct"`
}

// BatchRequest is the /v1/batch document.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchResponse is the /v1/batch reply: one entry per request, in order.
// Failed items carry {"error": ...} in place of their response document.
type BatchResponse struct {
	Responses []json.RawMessage `json:"responses"`
}

// Health is the /healthz document. Field order is fixed; the document is
// deterministic given the counters it reports.
type Health struct {
	// Status is "ok" whenever the server is accepting requests; the
	// store degrading does not make the server unhealthy, it makes it
	// memory-only.
	Status string `json:"status"`
	// Store is "ok", "degraded" or "disabled".
	Store string `json:"store"`
	// Tracing reports whether the simulate engines run with the trace
	// JIT enabled (Config.Engine.Traced). It changes simulate cycle
	// counts, never results, so clients comparing documents across
	// servers need to know.
	Tracing bool `json:"tracing"`
	// StoreQuarantined counts records the backend quarantined (recovery
	// scan plus runtime detections). Always 0 when the store is disabled.
	StoreQuarantined int64 `json:"store_quarantined"`
	// StoreWarmHits counts requests answered from the warm-start index.
	StoreWarmHits int64 `json:"store_warm_hits"`
	// StoreWarmEntries is the number of warm-start records not yet
	// served.
	StoreWarmEntries int64 `json:"store_warm_entries"`
}
