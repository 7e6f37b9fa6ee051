package service

import (
	"errors"
	"fmt"
	"time"

	"refidem/internal/store"
)

// AnalysisVersion identifies the semantics of the analysis pipeline and
// its response documents. It is part of every persisted record's address,
// so bumping it invalidates prior records without deleting them: a new
// release simply misses the old generation and recomputes. Bump it
// whenever labeling semantics, engine semantics or response rendering
// change in any byte-visible way.
const AnalysisVersion = "refidem-analysis/6"

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

// persistWrite is one queued write-behind record. ifAbsent marks a
// record the store may hold already (a kept-row answer): the persister
// writes it only when its read finds none.
type persistWrite struct {
	key      store.Key
	data     []byte
	ifAbsent bool
}

// storeKeyOf maps a coalescing task key onto the persistent store's
// address space: fingerprint + op + canonical params + AnalysisVersion.
func storeKeyOf(k taskKey) store.Key {
	return store.Key{
		Fingerprint: k.fp,
		Op:          k.op,
		Params:      fmt.Sprintf("deps=%t;procs=%d;cap=%d", k.deps, k.procs, k.capacity),
		Version:     AnalysisVersion,
	}
}

// storeQueueDepth bounds the write-behind persistence queue; a full
// queue drops writes (counted) instead of blocking the request path.
const storeQueueDepth = 256

// initStore attaches the configured backend: starts the write-behind
// persister and the degraded-mode probe loop. It reads no record: the
// backend answers each task's lookup itself. Called once from New.
func (s *Server) initStore() {
	if s.cfg.Store == nil {
		return
	}
	s.storeState.Store(int32(StoreOK))
	s.persistQ = make(chan persistWrite, storeQueueDepth)
	s.persistDone = make(chan struct{})
	s.probeStop = make(chan struct{})
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

// storeLookup answers a task from the persistent tier with one backend
// read. Records of another AnalysisVersion are never read: the version is
// part of every key. Returns nil on any miss or store fault — the caller
// computes, requests never fail on store errors.
func (s *Server) storeLookup(key taskKey) []byte {
	if StoreState(s.storeState.Load()) != StoreOK {
		return nil
	}
	data, found := s.storeGet(storeKeyOf(key))
	if found {
		s.metrics.storeHits.Add(1)
	}
	return data
}

// storeGet reads key's record with one backend read and reports whether
// it found one. A corrupt record, which the backend quarantines, reads
// as absent, so its address recomputes; a read fault is counted and
// degrades the store.
func (s *Server) storeGet(key store.Key) ([]byte, bool) {
	data, err := s.cfg.Store.Get(key)
	switch {
	case err == nil:
		return data, true
	case errors.Is(err, store.ErrNotFound):
	case errors.Is(err, store.ErrCorrupt):
		s.metrics.storeCorrupt.Add(1)
	default:
		s.metrics.storeReadErrors.Add(1)
		s.degradeStore(err)
	}
	return nil, false
}

// persistAsync enqueues a response for write-behind persistence, with
// ifAbsent for one the store may hold already. It never blocks the
// request path: a full queue drops the write (counted) rather than
// stalling the worker.
func (s *Server) persistAsync(key taskKey, resp []byte, ifAbsent bool) {
	if StoreState(s.storeState.Load()) != StoreOK {
		if StoreState(s.storeState.Load()) == StoreDegraded {
			s.metrics.storeDroppedWrites.Add(1)
		}
		return
	}
	select {
	case s.persistQ <- persistWrite{key: storeKeyOf(key), data: resp, ifAbsent: ifAbsent}:
	default:
		s.metrics.storeDroppedWrites.Add(1)
	}
}

// persistLoop drains the write-behind queue. A write marked ifAbsent
// first reads its key and is skipped when the store holds the record; the
// read serves no answer, so it counts no store hit. A read or write error
// degrades the store; queued writes arriving while degraded are dropped
// (counted), not retried — the probe loop decides when the backend is
// trustworthy again.
func (s *Server) persistLoop() {
	defer close(s.persistDone)
	for w := range s.persistQ {
		if w.ifAbsent && StoreState(s.storeState.Load()) == StoreOK {
			if _, found := s.storeGet(w.key); found {
				continue
			}
		}
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
// belongs to the caller.
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
	h := Health{Status: "ok", Store: s.StoreStateNow().String()}
	if s.cfg.Store != nil {
		h.StoreQuarantined = s.cfg.Store.Quarantined()
	}
	return h
}
