package service

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"refidem/internal/deps"
)

// latencyBuckets is the number of power-of-two latency histogram buckets:
// bucket i counts requests with latency <= 2^i microseconds, so the
// histogram spans 1 µs .. ~67 s with one overflow bucket at the end.
const latencyBuckets = 27

// Metrics holds the server's counters. All fields are atomically updated
// and safe to read while the server runs; RenderMetricz produces the
// /metricz text document.
type Metrics struct {
	// Per-endpoint request counters (batch items count under their op;
	// batchCalls counts /v1/batch invocations themselves;
	// timelineRequests counts /v1/simulate?timeline=1 exports, which
	// bypass the queue and caches and so appear under no other counter).
	labelRequests    atomic.Int64
	simulateRequests atomic.Int64
	batchCalls       atomic.Int64
	timelineRequests atomic.Int64

	// Outcome counters.
	badRequests atomic.Int64
	overloaded  atomic.Int64
	coalesced   atomic.Int64
	computed    atomic.Int64
	// respHits counts requests answered from the response byte cache
	// without touching the parser or the queue.
	respHits atomic.Int64
	// timeouts counts requests that exceeded the configured per-request
	// deadline (served as 504 by the HTTP layer).
	timeouts atomic.Int64

	// Delta re-labeling counters (see delta.go). deltaRequests counts
	// requests that resolved through the base registry (response-cache
	// hits on repeated deltas do not reach resolution and are counted
	// under respHits); deltaUnknownBase counts delta requests whose base
	// the registry did not hold (served as 404). regionsReused and
	// regionsRelabeled count, over delta label computations only, regions
	// answered from the fragment cache versus re-labeled — their ratio is
	// the realized incrementality.
	deltaRequests    atomic.Int64
	deltaUnknownBase atomic.Int64
	regionsReused    atomic.Int64
	regionsRelabeled atomic.Int64

	// Persistent-store counters (all zero when no store is configured).
	// storeWarmHits counts tasks answered from the warm-start index;
	// storeHits counts tasks answered by a runtime backend read;
	// storeWarmEntries tracks warm-start records not yet served.
	storeWarmHits    atomic.Int64
	storeHits        atomic.Int64
	storeWarmEntries atomic.Int64
	// storeWrites/storeWriteErrors count write-behind persistence
	// outcomes; storeDroppedWrites counts writes dropped by a full queue
	// or a degraded store; storeCorrupt counts corrupt records detected
	// (and quarantined) on the read path; storeReadErrors counts backend
	// read faults.
	storeWrites        atomic.Int64
	storeWriteErrors   atomic.Int64
	storeDroppedWrites atomic.Int64
	storeCorrupt       atomic.Int64
	storeReadErrors    atomic.Int64
	// storeDegradedEvents counts ok→degraded transitions;
	// storeRecoveries counts degraded→ok transitions; storeProbeFailures
	// counts failed re-probes while degraded.
	storeDegradedEvents atomic.Int64
	storeRecoveries     atomic.Int64
	storeProbeFailures  atomic.Int64

	// Trace-JIT counters, aggregated over computed simulate requests
	// (all zero when Config.Engine.Traced is off). traceCompiled counts
	// superblocks compiled, traceBailouts counts guard failures and
	// overflow bailouts back to the interpreter, guardElided counts
	// memory references that ran direct inside traces because their
	// idempotency label removed the guard.
	traceCompiled atomic.Int64
	traceBailouts atomic.Int64
	guardElided   atomic.Int64

	// Simulate model-row counters (simulate.go): simRowsComputed counts
	// rows whose engine run a computation ran, simRowsReused rows served
	// from the program-tier entry instead, sequential rows included in
	// both. Their ratio is the engine work the reuse rules saved.
	simRowsComputed atomic.Int64
	simRowsReused   atomic.Int64
	// simSourceHits counts simulate and timeline requests resolved by
	// their selector digest, with no parse; simAnsweredKept counts
	// simulates answered from kept rows in the request goroutine, without
	// admission (they do not advance computed).
	simSourceHits   atomic.Int64
	simAnsweredKept atomic.Int64

	// Latency histogram over completed requests (coalesced waiters
	// included): bucket i counts latencies <= 2^i µs.
	latency [latencyBuckets + 1]atomic.Int64
	// latencySumNs accumulates total latency for the mean.
	latencySumNs atomic.Int64
}

func newMetrics() *Metrics { return &Metrics{} }

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// observeLatency records one completed request's latency.
func (m *Metrics) observeLatency(d time.Duration) {
	us := d.Microseconds()
	b := 0
	for b < latencyBuckets && us > 1<<b {
		b++
	}
	m.latency[b].Add(1)
	m.latencySumNs.Add(d.Nanoseconds())
}

// Snapshot is a point-in-time copy of every counter, for tests and the
// benchmark driver.
type Snapshot struct {
	LabelRequests, SimulateRequests, BatchCalls int64
	TimelineRequests                            int64
	BadRequests, Overloaded, Coalesced          int64
	Computed, RespHits                          int64
	LatencyCount, LatencySumNs                  int64
	Timeouts                                    int64
	DeltaRequests, DeltaUnknownBase             int64
	RegionsReused, RegionsRelabeled             int64
	StoreWarmHits, StoreHits, StoreWarmEntries  int64
	StoreWrites, StoreWriteErrors               int64
	StoreDroppedWrites, StoreCorrupt            int64
	StoreReadErrors                             int64
	StoreDegradedEvents, StoreRecoveries        int64
	StoreProbeFailures                          int64
	TraceCompiled, TraceBailouts, GuardElided   int64
	SimRowsComputed, SimRowsReused              int64
	SimSourceHits, SimAnsweredKept              int64
}

// SnapshotNow copies the counters.
func (m *Metrics) SnapshotNow() Snapshot {
	s := Snapshot{
		LabelRequests:       m.labelRequests.Load(),
		SimulateRequests:    m.simulateRequests.Load(),
		BatchCalls:          m.batchCalls.Load(),
		TimelineRequests:    m.timelineRequests.Load(),
		BadRequests:         m.badRequests.Load(),
		Overloaded:          m.overloaded.Load(),
		Coalesced:           m.coalesced.Load(),
		Computed:            m.computed.Load(),
		RespHits:            m.respHits.Load(),
		LatencySumNs:        m.latencySumNs.Load(),
		Timeouts:            m.timeouts.Load(),
		DeltaRequests:       m.deltaRequests.Load(),
		DeltaUnknownBase:    m.deltaUnknownBase.Load(),
		RegionsReused:       m.regionsReused.Load(),
		RegionsRelabeled:    m.regionsRelabeled.Load(),
		StoreWarmHits:       m.storeWarmHits.Load(),
		StoreHits:           m.storeHits.Load(),
		StoreWarmEntries:    m.storeWarmEntries.Load(),
		StoreWrites:         m.storeWrites.Load(),
		StoreWriteErrors:    m.storeWriteErrors.Load(),
		StoreDroppedWrites:  m.storeDroppedWrites.Load(),
		StoreCorrupt:        m.storeCorrupt.Load(),
		StoreReadErrors:     m.storeReadErrors.Load(),
		StoreDegradedEvents: m.storeDegradedEvents.Load(),
		StoreRecoveries:     m.storeRecoveries.Load(),
		StoreProbeFailures:  m.storeProbeFailures.Load(),
		TraceCompiled:       m.traceCompiled.Load(),
		TraceBailouts:       m.traceBailouts.Load(),
		GuardElided:         m.guardElided.Load(),
		SimRowsComputed:     m.simRowsComputed.Load(),
		SimRowsReused:       m.simRowsReused.Load(),
		SimSourceHits:       m.simSourceHits.Load(),
		SimAnsweredKept:     m.simAnsweredKept.Load(),
	}
	for i := range m.latency {
		s.LatencyCount += m.latency[i].Load()
	}
	return s
}

// RenderMetricz renders the /metricz document: one "name value" line per
// counter in fixed order, followed by the program-tier statistics and
// the latency histogram (cumulative buckets; empty leading buckets are
// elided).
func (s *Server) RenderMetricz() string {
	m := s.metrics
	var b strings.Builder
	w := func(name string, v int64) { fmt.Fprintf(&b, "%s %d\n", name, v) }
	w("requests_label", m.labelRequests.Load())
	w("requests_simulate", m.simulateRequests.Load())
	w("requests_batch_calls", m.batchCalls.Load())
	w("requests_timeline", m.timelineRequests.Load())
	w("requests_bad", m.badRequests.Load())
	w("requests_timeout", m.timeouts.Load())
	w("rejected_overloaded", m.overloaded.Load())
	w("coalesced_requests", m.coalesced.Load())
	w("tasks_computed", m.computed.Load())
	w("delta_requests", m.deltaRequests.Load())
	w("delta_unknown_base", m.deltaUnknownBase.Load())
	w("delta_regions_reused", m.regionsReused.Load())
	w("delta_regions_relabeled", m.regionsRelabeled.Load())
	if s.bases != nil {
		w("delta_base_entries", int64(s.bases.Len()))
	} else {
		w("delta_base_entries", 0)
	}
	if s.frags != nil {
		w("delta_fragment_entries", int64(s.frags.Len()))
	} else {
		w("delta_fragment_entries", 0)
	}
	w("trace_compiled", m.traceCompiled.Load())
	w("trace_bailouts", m.traceBailouts.Load())
	w("guard_elided", m.guardElided.Load())
	w("sim_rows_computed", m.simRowsComputed.Load())
	w("sim_rows_reused", m.simRowsReused.Load())
	w("sim_source_hits", m.simSourceHits.Load())
	w("sim_answered_kept", m.simAnsweredKept.Load())

	// Dependence-ensemble block: per-member query/answer/short-circuit
	// counters, rendered in chain order. The counters are package-wide in
	// internal/deps, so they aggregate every ensemble consultation in the
	// process; all zero when Config.Ensemble is off.
	ms := deps.MemberStatsNow()
	names := deps.MemberNames()
	for i, name := range names {
		w("deps_member_"+name+"_queries", ms.Queries[i])
		w("deps_member_"+name+"_hits", ms.Hits[i])
		w("deps_member_"+name+"_short_circuits", ms.ShortCircuits[i])
	}

	w("response_cache_hits", m.respHits.Load())
	if s.resp != nil {
		w("response_cache_entries", int64(s.resp.Len()))
	} else {
		w("response_cache_entries", 0)
	}

	// Persistent-store block: store_enabled/store_degraded render the
	// state machine as flags, the rest are cumulative counters.
	state := s.StoreStateNow()
	w("store_enabled", boolToInt(state != StoreDisabled))
	w("store_degraded", boolToInt(state == StoreDegraded))
	w("store_warm_hits", m.storeWarmHits.Load())
	w("store_warm_entries", m.storeWarmEntries.Load())
	w("store_hits", m.storeHits.Load())
	w("store_writes", m.storeWrites.Load())
	w("store_write_errors", m.storeWriteErrors.Load())
	w("store_dropped_writes", m.storeDroppedWrites.Load())
	w("store_corrupt_reads", m.storeCorrupt.Load())
	w("store_read_errors", m.storeReadErrors.Load())
	w("store_degraded_events", m.storeDegradedEvents.Load())
	w("store_recoveries", m.storeRecoveries.Load())
	w("store_probe_failures", m.storeProbeFailures.Load())
	var quarantined int64
	if s.cfg.Store != nil {
		quarantined = s.cfg.Store.Quarantined()
	}
	w("store_quarantined", quarantined)

	cs := s.CacheStats()
	w("cache_hits", cs.Hits)
	w("cache_misses", cs.Misses)
	w("cache_evictions", cs.Evictions)
	w("cache_entries", int64(cs.Entries))
	w("cache_capacity", int64(cs.Capacity))

	var buckets [latencyBuckets + 1]int64
	var count, cum int64
	for i := range m.latency {
		buckets[i] = m.latency[i].Load()
		count += buckets[i]
	}
	w("latency_count", count)
	if count > 0 {
		w("latency_mean_ns", m.latencySumNs.Load()/count)
	} else {
		w("latency_mean_ns", 0)
	}
	w("latency_p50_us", latencyQuantile(&buckets, count, 50))
	w("latency_p95_us", latencyQuantile(&buckets, count, 95))
	w("latency_p99_us", latencyQuantile(&buckets, count, 99))
	started := false
	for i := 0; i <= latencyBuckets; i++ {
		n := buckets[i]
		cum += n
		if !started && n == 0 && cum == 0 {
			continue
		}
		started = true
		if i < latencyBuckets {
			fmt.Fprintf(&b, "latency_le_us{%d} %d\n", int64(1)<<i, cum)
		} else {
			fmt.Fprintf(&b, "latency_le_us{+inf} %d\n", cum)
		}
		if cum == count {
			break
		}
	}
	return b.String()
}

// latencyQuantile reports the q-th percentile latency (in µs) from a
// histogram snapshot: the upper bound of the first bucket holding the
// rank-⌈count·q/100⌉ observation. A value in the overflow bucket reports
// that bucket's lower bound (2^latencyBuckets µs); an empty histogram
// reports 0. Bucket granularity (power-of-two) bounds the error.
func latencyQuantile(buckets *[latencyBuckets + 1]int64, count, q int64) int64 {
	if count == 0 {
		return 0
	}
	rank := (count*q + 99) / 100
	var cum int64
	for i := 0; i < latencyBuckets; i++ {
		cum += buckets[i]
		if cum >= rank {
			return int64(1) << i
		}
	}
	return int64(1) << latencyBuckets
}
