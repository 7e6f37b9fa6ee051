// Package service is the serving layer of the reproduction: a
// long-running, concurrency-safe Server wrapping the full parse → label →
// simulate pipeline behind a request API, so the ~22 µs dense labeling
// core and the engine's compiled-region caches are amortized across
// requests instead of being rebuilt per CLI invocation.
//
// The architecture, socket to core:
//
//   - a response byte cache keyed by the request's pre-parse content
//     hash, answering repeats without parsing or queueing;
//   - a batching/coalescing admission queue: identical in-flight requests
//     (same op, program fingerprint and parameters) deduplicate onto one
//     computation — the server's one singleflight — and admitted tasks
//     drain in bounded batches through an internal/parallel worker pool;
//   - admission control and backpressure: the queue is bounded, a full
//     queue rejects with ErrOverloaded, and Close drains every admitted
//     request before returning;
//   - one label path: every label response, full or delta, is assembled
//     from rendered region rows cached by region analysis fingerprint, so
//     only regions never seen before are labeled and rendered (label.go);
//   - a program tier of labeled programs keyed by ir.FingerprintOf, read
//     by simulate and timeline requests, which need whole-program labels;
//   - metrics: per-endpoint counters, program-tier hit/miss/eviction
//     statistics and a request latency histogram, rendered by
//     RenderMetricz.
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

	"refidem/internal/engine"
	"refidem/internal/ir"
	"refidem/internal/lru"
	"refidem/internal/obs"
	"refidem/internal/parallel"
	"refidem/internal/store"
)

// The typed service errors (ErrBadRequest, ErrOverloaded, ErrClosed,
// ErrTimeout, ErrUnknownBase) are the internal/api taxonomy, re-exported
// in request.go. The HTTP layer maps them to status codes; in-process
// callers test with errors.Is.

// Config parameterizes a Server. The zero value is normalized to the
// defaults documented per field; DefaultConfig spells them out.
type Config struct {
	// CacheCapacity is the program tier's capacity in labeled programs
	// (<= 0 selects 512).
	CacheCapacity int
	// Workers bounds the compute worker pool (<= 0 selects GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrOverloaded (<= 0 selects 1024).
	QueueDepth int
	// MaxBatch bounds how many queued tasks one dispatch admits to the
	// worker pool at a time (<= 0 selects 64).
	MaxBatch int
	// Coalesce deduplicates identical in-flight requests onto a single
	// computation. DefaultConfig enables it; the zero Config leaves it
	// off so the field composes with struct literals.
	Coalesce bool
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
	// the zero value and DefaultConfig are memory-only). When set, the
	// server warm-starts from it at construction, persists computed
	// responses write-behind, and degrades to memory-only on backend
	// faults instead of failing requests. The backend belongs to the
	// caller: Close does not close it.
	Store store.Backend
	// StoreQueueDepth bounds the write-behind persistence queue; a full
	// queue drops writes (counted) instead of blocking the request path
	// (<= 0 selects 256).
	StoreQueueDepth int
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
	// Ensemble labels every region — on the label, delta and program-tier
	// paths alike — through the collaborative dependence ensemble
	// (idem.LabelRegionEnsembleWithInfo) with the range pre-filter and
	// must-write-first members enabled. Responses stay byte-identical to
	// the plain labeler — speculative members only annotate confidences,
	// never labels — while /metricz gains per-member query, hit and
	// short-circuit counters.
	Ensemble bool
	// DeltaBases bounds the base registry: the canonical sources of the
	// most recently analyzed programs, addressable as delta bases by
	// fingerprint (0 selects 256, negative disables delta serving —
	// every delta request then answers ErrUnknownBase).
	DeltaBases int
	// DeltaFragments bounds the region fragment cache every label response
	// is assembled from (0 selects 4096, negative disables reuse — every
	// label then labels every region, still byte-identically).
	DeltaFragments int
}

// DefaultConfig returns the production defaults: a 512-program tier,
// GOMAXPROCS workers, a 1024-deep admission queue drained in batches of
// 64, coalescing on, the paper's default machine.
func DefaultConfig() Config {
	return Config{
		CacheCapacity: 512,
		QueueDepth:    1024,
		MaxBatch:      64,
		Coalesce:      true,
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
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.ResponseCache == 0 {
		c.ResponseCache = 4 * c.CacheCapacity
	}
	if c.Engine.Processors == 0 {
		c.Engine = engine.DefaultConfig()
	}
	if c.StoreQueueDepth <= 0 {
		c.StoreQueueDepth = 256
	}
	if c.DeltaBases == 0 {
		c.DeltaBases = 256
	}
	if c.DeltaFragments == 0 {
		c.DeltaFragments = 4096
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

	// The memory tiers; resp, bases and frags are nil when disabled. resp
	// holds response bytes by request (respcache.go); programs holds the
	// labeled programs simulate and timeline requests run (label.go);
	// bases resolves delta requests (delta.go); frags holds the rendered
	// region rows every label response is assembled from (label.go).
	resp     *lru.Cache[respKey, respEntry]
	programs *lru.Cache[ir.Fingerprint, programEntry]
	bases    *lru.Cache[ir.Fingerprint, string]
	frags    *lru.Cache[ir.Fingerprint, RegionLabeling]
	// progHits and progMisses count program-tier lookups.
	progHits, progMisses atomic.Int64

	// computeHook, when a test sets it before the first request, runs at
	// the start of every computation.
	computeHook func(*ir.Program)

	mu       sync.Mutex
	closed   bool
	inflight map[taskKey]*task
	queue    chan *task
	// closing mirrors closed for lock-free reads on the fast path.
	closing atomic.Bool

	drained chan struct{}

	// Persistence tier (see persist.go). storeState holds a StoreState;
	// warm is the boot-time snapshot of persisted responses, drained as
	// entries are served; persistQ is the bounded write-behind queue.
	storeState  atomic.Int32
	warmMu      sync.Mutex
	warm        map[store.Key][]byte
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
	prog *ir.Program
	done chan struct{}
	resp []byte
	err  error

	// delta marks tasks admitted from a delta request (Base set); only
	// they advance the delta_regions_* counters. The response bytes do not
	// depend on it, so coalescing full and delta requests onto one task is
	// exact.
	delta bool

	// Flight-recorder stage timings of the worker-side phases (zero when
	// the recorder is off) and the response source ("store" or
	// "compute"). Coalesced waiters all report the one computation they
	// waited on.
	spanStoreRead  int64
	spanCompute    int64
	spanStoreWrite int64
	src            string
}

// New starts a Server: the admission queue is allocated and the
// dispatcher goroutine begins draining it in bounded batches.
func New(cfg Config) *Server {
	cfg = cfg.normalized()
	s := &Server{
		cfg:      cfg,
		metrics:  newMetrics(),
		programs: lru.New[ir.Fingerprint, programEntry](cfg.CacheCapacity),
		inflight: make(map[taskKey]*task),
		queue:    make(chan *task, cfg.QueueDepth),
		drained:  make(chan struct{}),
	}
	if cfg.ResponseCache > 0 {
		s.resp = lru.New[respKey, respEntry](cfg.ResponseCache)
	}
	if cfg.DeltaBases > 0 {
		s.bases = lru.New[ir.Fingerprint, string](cfg.DeltaBases)
	}
	if cfg.DeltaFragments > 0 {
		s.frags = lru.New[ir.Fingerprint, RegionLabeling](cfg.DeltaFragments)
	}
	if cfg.FlightSpans > 0 {
		s.flight = obs.NewFlightRecorder(cfg.FlightSpans)
	}
	s.initStore()
	go s.dispatch()
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
	<-s.drained
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
// one computation when the server was configured with Coalesce.
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
	if err := validate(req); err != nil {
		s.metrics.badRequests.Add(1)
		return nil, s.finishSpan(fl, &sp, err), err
	}
	if s.closing.Load() {
		return nil, s.finishSpan(fl, &sp, ErrClosed), ErrClosed
	}
	if fl != nil {
		sp.Lap(obs.StageAdmission) // validation is part of admission
	}
	var rk respKey
	if s.resp != nil {
		rk = respKeyOf(req)
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
	prog, err := s.resolveRequest(req)
	if err != nil {
		s.metrics.badRequests.Add(1)
		if !errors.Is(err, ErrUnknownBase) {
			err = fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return nil, s.finishSpan(fl, &sp, err), err
	}
	if fl != nil {
		sp.Lap(obs.StageSingleflight) // program resolution (parse/example)
	}

	t, coalesced, err := s.admit(req, prog)
	if err != nil {
		return nil, s.finishSpan(fl, &sp, err), err
	}
	if fl != nil {
		sp.Lap(obs.StageAdmission)
		sp.Coalesced = coalesced
		sp.Fingerprint = t.key.fp
		sp.HasFingerprint = true
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
	if s.resp != nil {
		s.resp.Put(rk, respEntry{resp: t.resp, fp: t.key.fp})
	}
	return t.resp, s.finishSpan(fl, &sp, nil), nil
}

// admit coalesces the request onto an in-flight task (reported by the
// second return) or enqueues a new one, applying backpressure when the
// queue is full.
func (s *Server) admit(req Request, prog *ir.Program) (*task, bool, error) {
	key := taskKey{op: req.Op, fp: ir.FingerprintOf(prog), deps: req.Deps,
		procs: req.Procs, capacity: req.Capacity}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	if s.cfg.Coalesce {
		if t, ok := s.inflight[key]; ok {
			s.metrics.coalesced.Add(1)
			return t, true, nil
		}
	}
	t := &task{key: key, prog: prog, delta: req.Base != "", done: make(chan struct{})}
	select {
	case s.queue <- t:
	default:
		s.metrics.overloaded.Add(1)
		return nil, false, ErrOverloaded
	}
	if s.cfg.Coalesce {
		s.inflight[key] = t
	}
	return t, false, nil
}

// dispatch drains the admission queue in bounded batches, handing each
// batch to an internal/parallel worker pool. Up to Workers batches run
// concurrently (each bounded by the shared worker-slot pool, so total
// task concurrency never exceeds Workers); holding a batch slot *before*
// receiving from the queue keeps backpressure honest — when every slot is
// busy, admitted tasks accumulate in the bounded queue and overflow to
// ErrOverloaded instead of piling into unbounded launched-but-waiting
// batches. dispatch exits — signalling drained — once Close has closed
// the queue and every admitted task has completed.
func (s *Server) dispatch() {
	defer close(s.drained)
	batchSlots := make(chan struct{}, s.cfg.Workers)
	workerSlots := make(chan struct{}, s.cfg.Workers)
	var batches sync.WaitGroup
	defer batches.Wait()
	for {
		batchSlots <- struct{}{}
		t, ok := <-s.queue
		if !ok {
			<-batchSlots
			return
		}
		batch := make([]*task, 1, s.cfg.MaxBatch)
		batch[0] = t
		closed := false
		for len(batch) < s.cfg.MaxBatch && !closed {
			select {
			case t, ok := <-s.queue:
				if !ok {
					closed = true
					break
				}
				batch = append(batch, t)
			default:
				closed = true // queue momentarily empty: dispatch what we have
			}
		}
		s.metrics.batches.Add(1)
		s.metrics.batchTasks.Add(int64(len(batch)))
		batches.Add(1)
		go func(batch []*task) {
			defer batches.Done()
			defer func() { <-batchSlots }()
			// Worker panics are converted to task errors inside run, so
			// the pool's own panic propagation never fires here; the
			// background context keeps the pool draining even while Close
			// waits.
			parallel.ForEachCtx(context.Background(), len(batch), s.cfg.Workers, func(i int) {
				workerSlots <- struct{}{}
				defer func() { <-workerSlots }()
				s.run(batch[i])
			})
		}(batch)
	}
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
	// The persistent tier answers before any compute: a warm-start or
	// store hit is byte-identical to the cold compute by the determinism
	// guarantee, so serving it is exact — the paper's thesis (idempotent
	// work may be skipped) applied to the analysis itself.
	if resp := s.storeLookup(t.key); resp != nil {
		t.resp = resp
		s.registerBase(t.key.fp, t.prog)
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
		// delta tasks too, so edits can chain base → patched → re-patched.
		s.registerBase(t.key.fp, t.prog)
	}
	if flight {
		now := time.Now()
		t.spanCompute = now.Sub(lap).Nanoseconds()
		lap = now
		t.src = "compute"
	}
	if t.err == nil && t.resp != nil {
		s.persistAsync(t.key, t.resp)
	}
	if flight {
		t.spanStoreWrite = time.Since(lap).Nanoseconds()
	}
}

// compute produces one task's response bytes. Labels are assembled from
// region fragments (label.go); simulates run the engine on the program
// tier's canonical labeled program, so rendering sees identical inputs
// for identical programs and the response bytes are identical too.
func (s *Server) compute(t *task) {
	if s.computeHook != nil {
		s.computeHook(t.prog)
	}
	if t.key.op == OpLabel {
		t.resp, t.err = s.label(t)
		return
	}
	prog, labs, err := s.labeled(t.key.fp, t.prog)
	if err != nil {
		t.err = fmt.Errorf("%w: %v", ErrBadRequest, err)
		return
	}
	cfg := s.cfg.Engine
	if t.key.procs > 0 {
		cfg.Processors = t.key.procs
	}
	if t.key.capacity > 0 {
		cfg.SpecCapacity = t.key.capacity
	}
	var tt traceTally
	t.resp, tt, t.err = renderSimulateResponse(t.key.fp, prog, labs, cfg)
	if t.err == nil {
		s.metrics.traceCompiled.Add(tt.compiled)
		s.metrics.traceBailouts.Add(tt.bailouts)
		s.metrics.guardElided.Add(tt.elided)
	}
}

// CacheStats is a snapshot of the program tier: Hits and Misses count the
// lookups of simulate and timeline requests.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Entries, Capacity       int
}

// CacheStats snapshots the program tier.
func (s *Server) CacheStats() CacheStats {
	return CacheStats{
		Hits:      s.progHits.Load(),
		Misses:    s.progMisses.Load(),
		Evictions: s.programs.Evictions(),
		Entries:   s.programs.Len(),
		Capacity:  s.cfg.CacheCapacity,
	}
}

// Metrics exposes the server's counters (see Metrics for the fields).
func (s *Server) Metrics() *Metrics { return s.metrics }

// FlightRecorder exposes the request flight recorder (nil when
// Config.FlightSpans left recording disabled).
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.flight }
