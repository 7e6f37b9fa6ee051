// Package obs is the observability layer shared by the serving and
// engine tiers: a fixed-size, lock-light flight recorder of per-request
// spans (served on /debug/tracez) and a speculation timeline capturing
// segment spawn/commit/squash events from the engine (exported as Chrome
// trace-event JSON for Perfetto).
//
// Both recorders are strictly observational. Span timestamps are
// wall-clock reads that never reach a response document (the detlint
// time-now annotations below mark every site), and timeline events are
// stamped with simulated cycles, so attaching either changes no output
// byte anywhere else. Both are designed to be disabled by a nil pointer:
// the hot paths they instrument carry a single nil check and nothing
// else when observability is off.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage indexes one phase of a request's life inside the serving layer.
// The stages mirror the request walkthrough in docs/ARCHITECTURE.md:
// admission control, the response byte cache probe, the
// program-cache/singleflight trip (parse plus the wait for the shared
// computation), and the worker-side store read, compute and write-behind
// phases.
type Stage uint8

const (
	// StageAdmission is request validation plus admission-queue entry.
	StageAdmission Stage = iota
	// StageRespCache is the response byte cache probe.
	StageRespCache
	// StageSingleflight is program resolution (parse or example lookup)
	// plus the wait on the possibly-coalesced computation.
	StageSingleflight
	// StageStoreRead is the worker's persistent-tier lookup (warm index
	// and backend read). Worker stages are shared: coalesced waiters
	// report the one computation they all waited on.
	StageStoreRead
	// StageCompute is labeling, simulation and response rendering.
	StageCompute
	// StageStoreWrite is the write-behind persistence enqueue.
	StageStoreWrite
	// NumStages sizes per-span stage arrays.
	NumStages
)

// String names the stage as rendered on /debug/tracez.
func (st Stage) String() string {
	switch st {
	case StageAdmission:
		return "admission"
	case StageRespCache:
		return "resp_cache"
	case StageSingleflight:
		return "singleflight"
	case StageStoreRead:
		return "store_read"
	case StageCompute:
		return "compute"
	case StageStoreWrite:
		return "store_write"
	}
	return "unknown"
}

// Span is one request's flight record: identity, outcome and monotonic
// per-stage durations. Spans are plain values — Begin returns one on the
// caller's stack, the caller laps stages into it, and Record copies it
// into the ring — so recording a request allocates nothing.
type Span struct {
	// TraceID is the recorder-assigned request ID (1-based, monotonic;
	// echoed to HTTP clients as X-Refidem-Trace-Id).
	TraceID uint64
	// Op is the request operation ("label", "simulate").
	Op string
	// Outcome classifies how the request ended: "ok", "bad_request",
	// "overloaded", "timeout", "closed", "canceled" or "error".
	Outcome string
	// Source says what answered an ok request: "resp_cache", "store",
	// "compute" (coalesced waiters inherit the leader's source) or "rows",
	// a simulate answered in the request goroutine from the model rows its
	// program-tier entry keeps, with no task, queue or engine run; its
	// rendering is charged to StageCompute.
	Source string
	// Coalesced marks a request that joined an identical in-flight
	// computation instead of enqueueing its own.
	Coalesced bool
	// Fingerprint is the program content fingerprint, valid when
	// HasFingerprint is set (requests failing before admission never
	// learn it).
	Fingerprint [32]byte
	// HasFingerprint reports whether Fingerprint is meaningful.
	HasFingerprint bool
	// Start is the request arrival wall clock (Unix nanoseconds), for
	// display only; durations below come from the monotonic clock.
	Start int64
	// Stages holds nanoseconds spent per Stage. Stages not visited stay
	// zero; revisited stages accumulate.
	Stages [NumStages]int64
	// Total is the request's end-to-end monotonic duration in
	// nanoseconds.
	Total int64

	began time.Time
	lap   time.Time
}

// Begin opens a span for one request. The caller assigns TraceID (see
// FlightRecorder.NextID), laps stages as they complete, and commits the
// span with End plus FlightRecorder.Record.
func Begin(op string) Span {
	now := time.Now() //detlint:allow time-now (span timing never reaches response bytes)
	return Span{Op: op, Start: now.UnixNano(), began: now, lap: now}
}

// Lap charges the time since the previous lap (or Begin) to one stage.
func (s *Span) Lap(st Stage) {
	now := time.Now() //detlint:allow time-now (span timing never reaches response bytes)
	s.Stages[st] += now.Sub(s.lap).Nanoseconds()
	s.lap = now
}

// End stamps the outcome and the total duration.
func (s *Span) End(outcome string) {
	s.Outcome = outcome
	s.Total = time.Since(s.began).Nanoseconds() //detlint:allow time-now (span timing never reaches response bytes)
}

// slot is one ring entry. Each slot has its own mutex so concurrent
// writers contend only when their trace IDs collide on a slot (ring
// capacity apart), and a tracez snapshot never blocks the whole ring.
type slot struct {
	mu   sync.Mutex
	span Span
}

// FlightRecorder is the fixed-size request span ring. Writers claim a
// trace ID from one atomic counter; the ID modulo the capacity is the
// span's slot, so the ring always holds the most recent spans and
// recording is wait-free apart from the slot mutex.
type FlightRecorder struct {
	seq   atomic.Uint64
	slots []slot
}

// NewFlightRecorder builds a recorder holding the last n spans
// (n <= 0 selects 256).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 256
	}
	return &FlightRecorder{slots: make([]slot, n)}
}

// Cap reports the ring capacity in spans.
func (r *FlightRecorder) Cap() int { return len(r.slots) }

// NextID claims the next trace ID (1-based, monotonic).
func (r *FlightRecorder) NextID() uint64 { return r.seq.Add(1) }

// Record commits a finished span into the ring slot owned by its trace
// ID. The span is copied by value; Record never allocates.
func (r *FlightRecorder) Record(sp Span) {
	if sp.TraceID == 0 {
		return
	}
	sl := &r.slots[(sp.TraceID-1)%uint64(len(r.slots))]
	sl.mu.Lock()
	sl.span = sp
	sl.mu.Unlock()
}

// Snapshot copies the recorded spans out of the ring, newest trace ID
// first. Slots claimed by still-in-flight requests report the span they
// last held (or nothing when never written).
func (r *FlightRecorder) Snapshot() []Span {
	seq := r.seq.Load()
	n := uint64(len(r.slots))
	if seq < n {
		n = seq
	}
	out := make([]Span, 0, n)
	for id := seq; id > seq-n; id-- {
		sl := &r.slots[(id-1)%uint64(len(r.slots))]
		sl.mu.Lock()
		sp := sl.span
		sl.mu.Unlock()
		if sp.TraceID != 0 {
			out = append(out, sp)
		}
	}
	return out
}
