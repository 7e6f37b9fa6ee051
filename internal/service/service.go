// Package service is the serving layer of the reproduction: a
// long-running, concurrency-safe Server wrapping the full parse → label →
// simulate pipeline behind a request API, so the ~22 µs dense labeling
// core and the engine's compiled region code, which lives on each region
// and is collected with its program, are amortized across requests
// instead of being rebuilt per CLI invocation.
//
// The architecture, socket to core:
//
//   - a response byte cache keyed by the request's pre-parse content
//     hash, answering repeats without parsing or queueing;
//   - a coalescing admission queue: identical in-flight requests (same
//     op, program fingerprint and parameters) deduplicate onto one
//     computation — the server's one singleflight — and a fixed pool of
//     Workers goroutines drains admitted tasks one at a time;
//   - admission control and backpressure: the queue bounds the tasks
//     waiting for a worker, a full queue rejects with ErrOverloaded, and
//     Close drains every admitted request before returning;
//   - one label path: every label response, full or delta, is assembled
//     from rendered region rows, and the base registry keeps each
//     program's rows with the source deltas compose against, so a repeat
//     or a delta labels and renders only the regions its rows lack
//     (label.go, delta.go);
//   - a program tier of labeled programs keyed by ir.FingerprintOf, read
//     by simulate and timeline requests, which need whole-program labels;
//     a program enters it on its second lookup, the first having labeled
//     it into a small probation LRU in front of the tier, so programs
//     simulated once never take a tier slot (label.go); each entry also
//     keeps the program's sequential run and the rows of its saturated
//     speculative runs, so a simulate runs only the engine work its
//     machine changes, and a simulate whose rows are all kept is answered
//     in the request goroutine without queueing (simulate.go); alias
//     entries under the selector digest of promoted programs' texts
//     resolve a repeated text without parsing it;
//   - metrics: per-endpoint counters, program-tier hit, miss, eviction
//     and promotion statistics and a request latency histogram, rendered
//     by RenderMetricz.
//
// Every bounded tier is one internal/lru cache under one lock.
//
// Responses are byte-deterministic: identical programs (and parameters)
// produce byte-identical response documents, so the golden and fuzzing
// oracles can target the server exactly like the CLIs.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"refidem/internal/api"
	"refidem/internal/engine"
	"refidem/internal/ir"
	"refidem/internal/lru"
	"refidem/internal/obs"
	"refidem/internal/store"
)

// The typed service errors (ErrBadRequest, ErrOverloaded, ErrClosed,
// ErrTimeout, ErrUnknownBase) are the internal/api taxonomy, re-exported
// in request.go. The HTTP layer maps them to status codes; in-process
// callers test with errors.Is.

// Config parameterizes a Server. The zero value is normalized to the
// defaults documented per field; DefaultConfig spells them out.
type Config struct {
	// CacheCapacity is the program tier's capacity in entries (<= 0
	// selects 512). A program takes one entry under its fingerprint once
	// a second simulate or timeline lookup promotes it out of probation,
	// the LRU of max(16, CacheCapacity/8) programs that the first lookup
	// labels it into; each program or example text simulated again after
	// the program was promoted takes one more alias entry under its
	// selector digest. Probation is not counted in the capacity.
	CacheCapacity int
	// Workers is the size of the compute worker pool (<= 0 selects
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admitted tasks waiting for a worker; a full
	// queue rejects with ErrOverloaded (<= 0 selects 1024).
	QueueDepth int
	// ResponseCache is the capacity of the response byte cache — the fast
	// path answering repeat requests without touching the parser or the
	// queue (0 selects 4× CacheCapacity, negative disables it). Responses
	// are byte-deterministic, so serving cached bytes is exact.
	ResponseCache int
	// Engine is the base simulated machine; per-request processors and
	// capacity override it. A zero Processors selects
	// engine.DefaultConfig.
	Engine engine.Config
	// Store is the persistent result store (nil disables persistence —
	// the zero value and DefaultConfig are memory-only). When set, a task
	// that misses the memory tiers reads the backend before computing,
	// computed responses are persisted write-behind through a 256-deep
	// queue, and backend faults degrade the server to memory-only instead
	// of failing requests. The backend belongs to the caller.
	Store store.Backend
	// StoreProbeInterval is how often a degraded store is re-probed
	// (<= 0 selects 3s).
	StoreProbeInterval time.Duration
	// RequestTimeout is the per-request deadline applied inside Do; a
	// request that exceeds it fails with ErrTimeout (HTTP 504). Zero
	// disables the deadline.
	RequestTimeout time.Duration
	// FlightSpans enables the request flight recorder with a ring of that
	// many spans (see internal/obs): every request records its per-stage
	// timings and outcome, served on /debug/tracez and identified to HTTP
	// clients by the X-Refidem-Trace-Id header. 0 (the default) disables
	// recording entirely — the request path then carries a single nil
	// check and no clock reads beyond the latency histogram's. Span
	// timings never reach response bytes, so responses are byte-identical
	// either way.
	FlightSpans int
	// DeltaBases bounds the base registry, the one label tier: the most
	// recently analyzed programs, addressable as delta bases by
	// fingerprint, each with its canonical source and the rendered region
	// rows its label responses were assembled from (0 selects 256).
	// Negative disables delta serving and row reuse together: every delta
	// request then answers ErrUnknownBase, and every label labels every
	// region, still byte-identically.
	DeltaBases int
}

// DefaultConfig returns the production defaults: a 512-program tier,
// GOMAXPROCS workers, a 1024-deep admission queue, the paper's default
// machine.
func DefaultConfig() Config {
	return Config{
		CacheCapacity: 512,
		QueueDepth:    1024,
		Engine:        engine.DefaultConfig(),
	}
}

func (c Config) normalized() Config {
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 512
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.ResponseCache == 0 {
		c.ResponseCache = 4 * c.CacheCapacity
	}
	if c.Engine.Processors == 0 {
		c.Engine = engine.DefaultConfig()
	}
	if c.DeltaBases == 0 {
		c.DeltaBases = 256
	}
	if c.StoreProbeInterval <= 0 {
		c.StoreProbeInterval = 3 * time.Second
	}
	return c
}

// Server is the analysis service. Construct with New, submit with Label,
// Simulate, Batch or Do, and shut down with Close. All methods are safe
// for concurrent use.
type Server struct {
	cfg     Config
	metrics *Metrics
	flight  *obs.FlightRecorder // nil when disabled

	// The memory tiers; resp and bases are nil when disabled. resp holds
	// response bytes by request (respcache.go); programs holds the
	// labeled programs simulate and timeline requests run, by fingerprint
	// and by the selector digests of repeatedly simulated texts, and
	// probation the programs labeled once, until their second lookup
	// promotes them into programs (label.go); bases holds each recently
	// served program's canonical source, which resolves deltas
	// (delta.go), and the rendered region rows its label responses were
	// assembled from, a row with a dependence list only for "deps"
	// requests (label.go).
	resp      *lru.Cache[api.Key, respEntry]
	programs  *lru.Cache[progKey, programEntry]
	probation *lru.Cache[ir.Fingerprint, programEntry]
	bases     *lru.Cache[ir.Fingerprint, *baseEntry]
	// progHits and progMisses count program-tier resolutions: one per
	// simulate or timeline request, by alias or fingerprint, a promotion
	// out of probation counting as a hit. promotions counts the programs
	// moved from probation into the tier.
	progHits, progMisses, promotions atomic.Int64

	// computeHook, when a test sets it before the first request, runs at
	// the start of every computation.
	computeHook func(*ir.Program)

	mu       sync.Mutex
	closed   bool
	inflight map[taskKey]*task
	queue    chan *task
	// closing mirrors closed for lock-free reads on the fast path.
	closing atomic.Bool

	// workers counts the running worker goroutines; each exits once Close
	// has closed the queue and the queue is empty.
	workers sync.WaitGroup

	// Persistence tier (see persist.go). storeState holds a StoreState;
	// persistQ is the bounded write-behind queue.
	storeState  atomic.Int32
	persistQ    chan persistWrite
	persistDone chan struct{}
	probeStop   chan struct{}
	storeOnce   sync.Once
}

// taskKey identifies a coalescable computation: the operation, the
// program content and every parameter that shapes the response.
type taskKey struct {
	op       string
	fp       ir.Fingerprint
	deps     bool
	procs    int
	capacity int
}

// task is one admitted computation plus its waiters. resp, err and the
// span fields are written by the worker before done is closed and
// read-only afterwards.
type task struct {
	key  taskKey
	done chan struct{}
	resp []byte
	err  error

	// entry is the resolved program, its canonical source formatted once
	// at resolution for the fingerprint and registered as a delta base on
	// success.
	entry programEntry

	// base is the registry entry a delta request (Base set) composed its
	// program from, nil for other tasks; the label reuses its rows, and
	// only delta tasks advance the delta_regions_* counters. The response
	// bytes do not depend on it, so coalescing full and delta requests
	// onto one task is exact.
	base *baseEntry
	// fps and rows are the region analysis fingerprints and the rows a
	// label computation assembled its response from, which run registers
	// with the program's base entry; nil when the label reused the
	// program's own rows or the registry is off.
	fps  []ir.Fingerprint
	rows []RegionLabeling

	// Flight-recorder stage timings of the worker-side phases (zero when
	// the recorder is off) and the response source ("store" or
	// "compute"). Coalesced waiters all report the one computation they
	// waited on.
	spanStoreRead  int64
	spanCompute    int64
	spanStoreWrite int64
	src            string
}

// New starts a Server: the admission queue is allocated and Workers
// goroutines begin draining it.
func New(cfg Config) *Server {
	cfg = cfg.normalized()
	s := &Server{
		cfg:       cfg,
		metrics:   newMetrics(),
		programs:  lru.New[progKey, programEntry](cfg.CacheCapacity),
		probation: lru.New[ir.Fingerprint, programEntry](max(16, cfg.CacheCapacity/8)),
		inflight:  make(map[taskKey]*task),
		queue:     make(chan *task, cfg.QueueDepth),
	}
	if cfg.ResponseCache > 0 {
		s.resp = lru.New[api.Key, respEntry](cfg.ResponseCache)
	}
	if cfg.DeltaBases > 0 {
		s.bases = lru.New[ir.Fingerprint, *baseEntry](cfg.DeltaBases)
	}
	if cfg.FlightSpans > 0 {
		s.flight = obs.NewFlightRecorder(cfg.FlightSpans)
	}
	s.initStore()
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			defer s.workers.Done()
			for t := range s.queue {
				s.run(t)
			}
		}()
	}
	return s
}

// Close stops admission (further requests fail with ErrClosed), drains
// every already-admitted request to completion, then flushes the
// write-behind persistence queue and stops the store goroutines — after
// Close returns no store write can happen. It is idempotent and safe to
// call concurrently.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.closing.Store(true)
		close(s.queue)
	}
	s.mu.Unlock()
	s.workers.Wait()
	// Every run() has returned, so nothing can enqueue persistence work
	// anymore; the persister drains what is already queued and exits.
	s.storeOnce.Do(s.closeStore)
}

// Label runs the labeling pipeline on the request's program and returns
// the deterministic response document.
func (s *Server) Label(ctx context.Context, req Request) ([]byte, error) {
	req.Op = OpLabel
	return s.Do(ctx, req)
}

// Simulate labels the request's program and executes it under the
// sequential, HOSE and CASE models, returning the deterministic response
// document.
func (s *Server) Simulate(ctx context.Context, req Request) ([]byte, error) {
	req.Op = OpSimulate
	return s.Do(ctx, req)
}

// Batch submits every request concurrently and returns the per-item
// responses and errors, in request order. Item failures are independent:
// one bad program does not fail its neighbours.
func (s *Server) Batch(ctx context.Context, reqs []Request) ([][]byte, []error) {
	s.metrics.batchCalls.Add(1)
	resps := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Do(ctx, reqs[i])
		}(i)
	}
	wg.Wait()
	return resps, errs
}

// Do validates and admits one request, waits for its computation and
// returns the response bytes. Identical in-flight requests coalesce onto
// one computation.
func (s *Server) Do(ctx context.Context, req Request) ([]byte, error) {
	resp, _, err := s.DoTraced(ctx, req)
	return resp, err
}

// outcomeOf classifies a request error for the flight recorder.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBadRequest):
		return "bad_request"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrClosed):
		return "closed"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return "error"
}

// finishSpan commits a request span to the flight recorder and returns
// its trace ID (0 when recording is off). The span is the caller's stack
// value; nothing here retains a pointer to it.
func (s *Server) finishSpan(fl *obs.FlightRecorder, sp *obs.Span, err error) uint64 {
	if fl == nil {
		return 0
	}
	sp.End(outcomeOf(err))
	fl.Record(*sp)
	return sp.TraceID
}

// DoTraced is Do plus the request's flight-recorder trace ID (0 when the
// recorder is disabled; see Config.FlightSpans). The HTTP layer echoes
// the ID as X-Refidem-Trace-Id so a response can be matched to its span
// on /debug/tracez. Responses are byte-identical with recording on or
// off — spans carry timings about the bytes, never into them.
func (s *Server) DoTraced(ctx context.Context, req Request) ([]byte, uint64, error) {
	start := time.Now()
	fl := s.flight
	var sp obs.Span
	if fl != nil {
		sp = obs.Begin(req.Op)
		sp.TraceID = fl.NextID()
	}
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	switch req.Op {
	case OpLabel:
		s.metrics.labelRequests.Add(1)
	case OpSimulate:
		s.metrics.simulateRequests.Add(1)
	}
	if err := api.Validate(req); err != nil {
		s.metrics.badRequests.Add(1)
		return nil, s.finishSpan(fl, &sp, err), err
	}
	if s.closing.Load() {
		return nil, s.finishSpan(fl, &sp, ErrClosed), ErrClosed
	}
	if fl != nil {
		sp.Lap(obs.StageAdmission) // validation is part of admission
	}
	// The key also carries the selector digest a simulate resolves its
	// program by, so simulates compute it with the response cache off too.
	var rk api.Key
	if s.resp != nil || req.Op == OpSimulate {
		rk = api.KeyOf(req)
	}
	if s.resp != nil {
		e, ok := s.resp.Get(rk)
		if ok && req.Op == OpLabel && req.Base == "" {
			s.reregisterBase(req, e.fp)
		}
		if fl != nil {
			sp.Lap(obs.StageRespCache)
		}
		if ok {
			// Fast path: the identical request was answered before; its
			// bytes are exact by the determinism guarantee, no parse or
			// queue trip needed. Only successful responses are cached, so
			// unparseable or unknown-program requests always fall through
			// to full resolution below.
			s.metrics.respHits.Add(1)
			s.metrics.observeLatency(time.Since(start))
			if fl != nil {
				sp.Source = "resp_cache"
			}
			return e.resp, s.finishSpan(fl, &sp, nil), nil
		}
	}
	e, base, known, err := s.resolve(req, rk.Selector())
	if err != nil {
		s.metrics.badRequests.Add(1)
		if !errors.Is(err, ErrUnknownBase) {
			err = fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return nil, s.finishSpan(fl, &sp, err), err
	}
	if fl != nil {
		sp.Lap(obs.StageSingleflight) // program resolution (alias, parse or example)
		sp.Fingerprint = e.fp
		sp.HasFingerprint = true
	}
	key := taskKey{op: req.Op, fp: e.fp, deps: req.Deps,
		procs: req.Procs, capacity: req.Capacity}
	if e.sim != nil {
		// A simulate whose every row the entry keeps is answered here,
		// like a response-cache hit: no task, queue or worker hop.
		if resp, ok := s.answerKept(key, e); ok {
			s.registerBase(e.fp, e.canonical, false, nil, nil)
			// Durable like a computed answer (run), but written only if
			// absent: the persister, off the request path, skips a record
			// the store holds already. Close closes the write-behind
			// queue once admission has stopped, so the write is queued
			// only while admission is open.
			if s.cfg.Store != nil {
				s.mu.Lock()
				if s.closed {
					s.metrics.storeDroppedWrites.Add(1)
				} else {
					s.persistAsync(key, resp, true)
				}
				s.mu.Unlock()
			}
			s.remember(req, rk, e, known, resp)
			s.metrics.observeLatency(time.Since(start))
			if fl != nil {
				sp.Lap(obs.StageCompute)
				sp.Source = "rows"
			}
			return resp, s.finishSpan(fl, &sp, nil), nil
		}
	}

	t, coalesced, err := s.admit(key, e, base)
	if err != nil {
		return nil, s.finishSpan(fl, &sp, err), err
	}
	if fl != nil {
		sp.Lap(obs.StageAdmission)
		sp.Coalesced = coalesced
	}
	select {
	case <-t.done:
	case <-ctx.Done():
		// The computation still completes for any coalesced waiters; this
		// caller alone abandons it. A deadline that came from the server's
		// own RequestTimeout maps to the typed ErrTimeout (HTTP 504) so a
		// stuck compute cannot hold an HTTP worker forever. The abandoned
		// task's span fields are still being written — only the immutable
		// key is safe to touch here.
		if s.cfg.RequestTimeout > 0 && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.metrics.timeouts.Add(1)
			err := fmt.Errorf("%w after %v", ErrTimeout, s.cfg.RequestTimeout)
			return nil, s.finishSpan(fl, &sp, err), err
		}
		return nil, s.finishSpan(fl, &sp, ctx.Err()), ctx.Err()
	}
	s.metrics.observeLatency(time.Since(start))
	if fl != nil {
		sp.Lap(obs.StageSingleflight) // the wait on the shared computation
		sp.Stages[obs.StageStoreRead] += t.spanStoreRead
		sp.Stages[obs.StageCompute] += t.spanCompute
		sp.Stages[obs.StageStoreWrite] += t.spanStoreWrite
		sp.Source = t.src
	}
	if t.err != nil {
		return nil, s.finishSpan(fl, &sp, t.err), t.err
	}
	s.remember(req, rk, e, known, t.resp)
	return t.resp, s.finishSpan(fl, &sp, nil), nil
}

// resolve resolves a validated request's program in the submitting
// goroutine, so malformed sources are rejected before they take queue
// space. A simulate of a program or example selector whose alias the
// program tier holds is found by its selector digest sel, with no parse
// and no canonicalization. Any other request resolves its program
// (resolveRequest; a delta also gets its base's registry entry) and
// formats it once for the fingerprint, and a simulate then looks the
// fingerprint up in the tier and, failing that, promotes it out of
// probation (promote); known reports either, so the text names a program
// already labeled. A simulate's entry is the tier's, labeled, when known.
// Each simulate resolution counts as one program-tier hit or miss.
func (s *Server) resolve(req Request, sel [32]byte) (e programEntry, base *baseEntry, known bool, err error) {
	simulate := req.Op == OpSimulate
	if simulate && req.Base == "" {
		if aliased, ok := s.programs.Get(progKey{sum: sel, alias: true}); ok {
			s.progHits.Add(1)
			s.metrics.simSourceHits.Add(1)
			return aliased, nil, false, nil
		}
	}
	p, base, err := s.resolveRequest(req)
	if err != nil {
		return programEntry{}, nil, false, err
	}
	e.canonical, e.fp = ir.Canonical(p)
	e.prog = p
	if simulate {
		stored, ok := s.programs.Get(progKey{sum: e.fp})
		if !ok {
			stored, ok = s.promote(e.fp)
		}
		if ok {
			s.progHits.Add(1)
			return stored, base, true, nil
		}
		s.progMisses.Add(1)
	}
	return e, base, false, nil
}

// remember records a successful answer to req, whose program resolved to
// e: the response cache stores its bytes, and a simulate of a program or
// example selector that found its program in the tier or promoted it
// (known) stores e under the selector digest, so the text's next repeat
// needs no parse. Only promoted programs thus take alias slots, and a
// text that failed to parse never gains one.
func (s *Server) remember(req Request, rk api.Key, e programEntry, known bool, resp []byte) {
	if known && req.Op == OpSimulate && req.Base == "" {
		s.programs.Put(progKey{sum: rk.Selector(), alias: true}, e)
	}
	if s.resp != nil {
		s.resp.Put(rk, respEntry{resp: resp, fp: e.fp})
	}
}

// admit coalesces the resolved request onto an in-flight task (reported
// by the second return) or enqueues a new one, applying backpressure when
// the queue is full. base is a delta request's base entry, nil otherwise.
func (s *Server) admit(key taskKey, e programEntry, base *baseEntry) (*task, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	if t, ok := s.inflight[key]; ok {
		s.metrics.coalesced.Add(1)
		return t, true, nil
	}
	t := &task{key: key, entry: e, base: base, done: make(chan struct{})}
	select {
	case s.queue <- t:
	default:
		s.metrics.overloaded.Add(1)
		return nil, false, ErrOverloaded
	}
	s.inflight[key] = t
	return t, false, nil
}

// run executes one task, publishes its response or error, and retires it
// from the coalescing table.
func (s *Server) run(t *task) {
	defer func() {
		if r := recover(); r != nil {
			t.err = fmt.Errorf("service: internal panic: %v", r)
		}
		s.mu.Lock()
		if s.inflight[t.key] == t {
			delete(s.inflight, t.key)
		}
		s.mu.Unlock()
		close(t.done)
	}()
	flight := s.flight != nil
	var lap time.Time
	if flight {
		lap = time.Now()
	}
	// The persistent tier answers before any compute: a store hit is
	// byte-identical to the cold compute by the determinism guarantee, so
	// serving it is exact — the paper's thesis (idempotent work may be
	// skipped) applied to the analysis itself.
	if resp := s.storeLookup(t.key); resp != nil {
		t.resp = resp
		s.registerBase(t.key.fp, t.entry.canonical, false, nil, nil)
		if flight {
			t.spanStoreRead = time.Since(lap).Nanoseconds()
			t.src = "store"
		}
		return
	}
	if flight {
		now := time.Now()
		t.spanStoreRead = now.Sub(lap).Nanoseconds()
		lap = now
	}
	s.metrics.computed.Add(1)
	s.compute(t)
	if t.err == nil {
		// The resolved program becomes addressable as a delta base — for
		// delta tasks too, so edits can chain base → patched → re-patched
		// — with the rows a label assembled its response from.
		s.registerBase(t.key.fp, t.entry.canonical, t.key.deps, t.fps, t.rows)
	}
	if flight {
		now := time.Now()
		t.spanCompute = now.Sub(lap).Nanoseconds()
		lap = now
		t.src = "compute"
	}
	if t.err == nil && t.resp != nil {
		s.persistAsync(t.key, t.resp, false)
	}
	if flight {
		t.spanStoreWrite = time.Since(lap).Nanoseconds()
	}
}

// compute produces one task's response bytes. Labels are assembled from
// region rows (label.go); simulates run on the program tier's
// canonical labeled program (simulate.go), so rendering sees identical
// inputs for identical programs and the response bytes are identical too.
func (s *Server) compute(t *task) {
	if s.computeHook != nil {
		s.computeHook(t.entry.prog)
	}
	if t.key.op == OpLabel {
		t.resp, t.err = s.label(t)
		return
	}
	t.resp, t.err = s.simulate(t)
}

// CacheStats is a snapshot of the program tier. Hits and Misses count the
// lookups of simulate and timeline requests: a hit found the program in
// the tier, by alias or fingerprint, or promoted it out of probation, and
// a miss left it to be labeled into probation. Promotions counts the
// programs moved from probation into the tier. Evictions, Entries and
// Capacity are the tier's own; probation is not counted in them.
type CacheStats struct {
	Hits, Misses, Evictions, Promotions int64
	Entries, Capacity                   int
}

// CacheStats snapshots the program tier.
func (s *Server) CacheStats() CacheStats {
	return CacheStats{
		Hits:       s.progHits.Load(),
		Misses:     s.progMisses.Load(),
		Evictions:  s.programs.Evictions(),
		Promotions: s.promotions.Load(),
		Entries:    s.programs.Len(),
		Capacity:   s.cfg.CacheCapacity,
	}
}

// Metrics exposes the server's counters (see Metrics for the fields).
func (s *Server) Metrics() *Metrics { return s.metrics }

// FlightRecorder exposes the request flight recorder (nil when
// Config.FlightSpans left recording disabled).
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.flight }
