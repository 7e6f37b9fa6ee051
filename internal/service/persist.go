package service

import (
	"errors"
	"fmt"
	"time"

	"refidem/internal/engine"
	"refidem/internal/store"
)

// AnalysisVersion identifies the semantics of the analysis pipeline and
// its response documents. It is part of every persisted record's address,
// so bumping it invalidates prior records without deleting them: a new
// release simply misses the old generation and recomputes. Bump it
// whenever labeling semantics, engine semantics or response rendering
// change in any byte-visible way.
const AnalysisVersion = "refidem-analysis/6"

// versionOf is the analysis version a server on the engine configuration
// cfg states, stores under and warm-loads. The trace JIT changes simulate
// cycle counts, so a traced server's answers are another version's:
// neither its store records nor, through the router, its cached bytes may
// answer for an untraced server, or the reverse.
func versionOf(cfg engine.Config) string {
	if cfg.Traced {
		return AnalysisVersion + "+traced"
	}
	return AnalysisVersion
}

// StoreState is the serving layer's view of its persistent store.
type StoreState int32

const (
	// StoreDisabled: no backend configured; the server is memory-only by
	// construction.
	StoreDisabled StoreState = iota
	// StoreOK: the backend is serving reads and writes.
	StoreOK
	// StoreDegraded: the backend faulted at runtime; the server continues
	// memory-only (requests never fail on store errors) and re-probes
	// periodically until the backend recovers.
	StoreDegraded
)

func (s StoreState) String() string {
	switch s {
	case StoreOK:
		return "ok"
	case StoreDegraded:
		return "degraded"
	}
	return "disabled"
}

// persistWrite is one queued write-behind record.
type persistWrite struct {
	key  store.Key
	data []byte
}

// storeKeyOf maps a coalescing task key onto the persistent store's
// address space: fingerprint + op + canonical params + the server's
// analysis version.
func (s *Server) storeKeyOf(k taskKey) store.Key {
	return store.Key{
		Fingerprint: k.fp,
		Op:          k.op,
		Params:      fmt.Sprintf("deps=%t;procs=%d;cap=%d", k.deps, k.procs, k.capacity),
		Version:     s.version,
	}
}

// initStore attaches the configured backend: warm-starts the in-memory
// tier from the recovery-scanned records, then starts the write-behind
// persister and the degraded-mode probe loop. Called once from New.
func (s *Server) initStore() {
	if s.cfg.Store == nil {
		return
	}
	s.storeState.Store(int32(StoreOK))
	s.persistQ = make(chan persistWrite, s.cfg.StoreQueueDepth)
	s.persistDone = make(chan struct{})
	s.probeStop = make(chan struct{})
	s.warm = make(map[store.Key][]byte)

	// Warm start: every valid record of the server's analysis version
	// becomes an in-memory answer. Records from other versions are left
	// in place (a rollback finds them again) but never loaded.
	err := s.cfg.Store.Scan(func(k store.Key, data []byte) error {
		if k.Version != s.version {
			return nil
		}
		if k.Op != OpLabel && k.Op != OpSimulate {
			return nil
		}
		s.warm[k] = append([]byte(nil), data...)
		return nil
	})
	if err != nil {
		s.degradeStore(err)
	}
	s.metrics.storeWarmEntries.Store(int64(len(s.warm)))

	go s.persistLoop()
	go s.probeLoop()
}

// StoreStateNow reports the current store state.
func (s *Server) StoreStateNow() StoreState {
	return StoreState(s.storeState.Load())
}

// degradeStore moves the store ok → degraded: the server keeps serving
// memory-only and the probe loop takes over recovery.
func (s *Server) degradeStore(err error) {
	if s.storeState.CompareAndSwap(int32(StoreOK), int32(StoreDegraded)) {
		s.metrics.storeDegradedEvents.Add(1)
		_ = err // the error is reflected in counters; the server never logs
	}
}

// storeLookup answers a task from the persistent tier: first the
// warm-start index (a boot-time snapshot, drained as entries are
// served), then the backend itself. Returns nil on any miss or store
// fault — the caller computes, requests never fail on store errors.
func (s *Server) storeLookup(key taskKey) []byte {
	if StoreState(s.storeState.Load()) == StoreDisabled {
		return nil
	}
	sk := s.storeKeyOf(key)
	s.warmMu.Lock()
	if data, ok := s.warm[sk]; ok {
		// The entry graduates to the response cache (the caller publishes
		// it); keeping it here would duplicate every served record.
		delete(s.warm, sk)
		s.warmMu.Unlock()
		s.metrics.storeWarmHits.Add(1)
		s.metrics.storeWarmEntries.Add(-1)
		return data
	}
	s.warmMu.Unlock()
	if StoreState(s.storeState.Load()) != StoreOK {
		return nil
	}
	data, err := s.cfg.Store.Get(sk)
	switch {
	case err == nil:
		s.metrics.storeHits.Add(1)
		return data
	case errors.Is(err, store.ErrNotFound):
		return nil
	case errors.Is(err, store.ErrCorrupt):
		// The backend quarantined the record; this address recomputes.
		s.metrics.storeCorrupt.Add(1)
		return nil
	default:
		s.metrics.storeReadErrors.Add(1)
		s.degradeStore(err)
		return nil
	}
}

// persistAsync enqueues a computed response for write-behind
// persistence. It never blocks the request path: a full queue drops the
// write (counted) rather than stalling the worker.
func (s *Server) persistAsync(key taskKey, resp []byte) {
	if StoreState(s.storeState.Load()) != StoreOK {
		if StoreState(s.storeState.Load()) == StoreDegraded {
			s.metrics.storeDroppedWrites.Add(1)
		}
		return
	}
	select {
	case s.persistQ <- persistWrite{key: s.storeKeyOf(key), data: resp}:
	default:
		s.metrics.storeDroppedWrites.Add(1)
	}
}

// persistLoop drains the write-behind queue. A write error degrades the
// store; queued writes arriving while degraded are dropped (counted),
// not retried — the probe loop decides when the backend is trustworthy
// again.
func (s *Server) persistLoop() {
	defer close(s.persistDone)
	for w := range s.persistQ {
		if StoreState(s.storeState.Load()) != StoreOK {
			s.metrics.storeDroppedWrites.Add(1)
			continue
		}
		if err := s.cfg.Store.Put(w.key, w.data); err != nil {
			s.metrics.storeWriteErrors.Add(1)
			s.degradeStore(err)
			continue
		}
		s.metrics.storeWrites.Add(1)
	}
}

// probeLoop periodically re-probes a degraded backend and restores it to
// service when the probe passes.
func (s *Server) probeLoop() {
	t := time.NewTicker(s.cfg.StoreProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.probeStop:
			return
		case <-t.C:
			if StoreState(s.storeState.Load()) != StoreDegraded {
				continue
			}
			if err := s.cfg.Store.Probe(); err != nil {
				s.metrics.storeProbeFailures.Add(1)
				continue
			}
			s.storeState.CompareAndSwap(int32(StoreDegraded), int32(StoreOK))
			s.metrics.storeRecoveries.Add(1)
		}
	}
}

// closeStore shuts the persistence machinery down after the request
// pipeline has drained: every already-queued write is flushed (or
// dropped if the store is degraded), the persister and probe goroutines
// exit, and no write can happen after Close returns. The backend itself
// belongs to the caller and is not closed.
func (s *Server) closeStore() {
	if s.cfg.Store == nil {
		return
	}
	close(s.persistQ)
	<-s.persistDone
	close(s.probeStop)
}

// Health reports the server's health document (served on /healthz). The
// document type lives in internal/api (aliased in request.go).
func (s *Server) Health() Health {
	h := Health{
		Status:           "ok",
		Store:            s.StoreStateNow().String(),
		Tracing:          s.cfg.Engine.Traced,
		StoreWarmHits:    s.metrics.storeWarmHits.Load(),
		StoreWarmEntries: s.metrics.storeWarmEntries.Load(),
	}
	if s.cfg.Store != nil {
		h.StoreQuarantined = s.cfg.Store.Quarantined()
	}
	return h
}
