package service

// The simulate path runs only the engine work a request's machine
// changes. A program-tier entry carries a simMemo with two kinds of
// result. The first is the sequential run, which reads no request
// parameter (engine.RunSequential), so it runs once per entry. The
// second is the model rows of saturated speculative runs, at most one per
// (processor count, mode). engine.SameRunAtCapacity says such a run is
// the run at every capacity at or above its peak occupancy. A row is kept
// only after its run passed the live-out check, so a reused row is the
// verified row a fresh run would render. A simulate whose three rows are
// all kept needs no engine run at all, and is answered in the request
// goroutine (answerKept) instead of queueing for a worker.

import (
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"refidem/internal/api"
	"refidem/internal/engine"
	"refidem/internal/ir"
)

// simMemo is a program-tier entry's simulation state: the sequential run
// on the server's base machine and the kept speculative rows, at most two
// per processor count (api.MaxProcs bounds the counts).
type simMemo struct {
	seqOnce sync.Once
	seq     *engine.Result
	seqErr  error
	// seqDone is set once seq and seqErr are written, so a reader that
	// must not run the sequential model can see whether it has run
	// (ranSequential).
	seqDone atomic.Bool

	mu   sync.Mutex
	rows []simRow
}

// simRow is the verified row of a saturated run of mode on the server's
// base machine with procs processors.
type simRow struct {
	procs int
	mode  engine.Mode
	row   ModelRow
}

// sequential returns the entry's sequential run of p on the base machine,
// running it on first use; ran reports whether this call ran it.
// Concurrent first callers run it once.
func (m *simMemo) sequential(p *ir.Program, base engine.Config) (res *engine.Result, ran bool, err error) {
	m.seqOnce.Do(func() {
		ran = true
		m.seq, m.seqErr = engine.RunSequential(p, base)
		m.seqDone.Store(true)
	})
	return m.seq, ran, m.seqErr
}

// ranSequential returns the entry's sequential run if it has already run
// and succeeded, without running it.
func (m *simMemo) ranSequential() (*engine.Result, bool) {
	if !m.seqDone.Load() || m.seqErr != nil {
		return nil, false
	}
	return m.seq, true
}

// specModes are the speculative models of a simulate document, in the
// order of its rows after the sequential one.
var specModes = [2]engine.Mode{engine.HOSE, engine.CASE}

// models assembles the rows of a simulate on machine cfg from what the
// entry keeps: the sequential row of seq, and for each of specModes the
// kept row that is, by engine.SameRunAtCapacity, its row on cfg. need[i]
// reports that specModes[i] has no such row: models[i+1] is then empty
// and needs an engine run. Both simulate paths assemble through it.
func (m *simMemo) models(seq *engine.Result, cfg engine.Config) (models []ModelRow, need [2]bool) {
	models = []ModelRow{modelRow(seq, seq.Cycles, cfg.Processors), {}, {}}
	for i, mode := range specModes {
		var ok bool
		models[i+1], ok = m.row(cfg, mode)
		need[i] = !ok
	}
	return models, need
}

// row returns a kept row that is, by engine.SameRunAtCapacity, the row of
// mode on machine cfg.
func (m *simMemo) row(cfg engine.Config, mode engine.Mode) (ModelRow, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.rows {
		if r.procs == cfg.Processors && r.mode == mode &&
			engine.SameRunAtCapacity(cfg, r.row.Overflows, r.row.PeakSpecOccupancy, cfg.SpecCapacity) {
			return r.row, true
		}
	}
	return ModelRow{}, false
}

// keep stores the verified row of mode on machine cfg if the rule lets it
// answer cfg's own capacity, which holds exactly when its run was
// saturated, and no row of mode at cfg's processor count is kept yet.
func (m *simMemo) keep(cfg engine.Config, mode engine.Mode, row ModelRow) {
	if !engine.SameRunAtCapacity(cfg, row.Overflows, row.PeakSpecOccupancy, cfg.SpecCapacity) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.rows {
		if r.procs == cfg.Processors && r.mode == mode {
			return
		}
	}
	m.rows = append(m.rows, simRow{procs: cfg.Processors, mode: mode, row: row})
}

// machine returns the server's base machine with a request's processor
// and capacity overrides applied (0 keeps the base value).
func (s *Server) machine(procs, capacity int) engine.Config {
	cfg := s.cfg.Engine
	if procs > 0 {
		cfg.Processors = procs
	}
	if capacity > 0 {
		cfg.SpecCapacity = capacity
	}
	return cfg
}

// simulate answers an OpSimulate task from its program-tier entry: the
// entry's sequential run, kept rows for the speculative models the
// request's machine reproduces, and fresh runs for the others. Fresh runs
// are verified against the sequential live-outs before they are served
// or kept.
func (s *Server) simulate(t *task) ([]byte, error) {
	e, err := s.labeled(t.entry)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	cfg := s.machine(t.key.procs, t.key.capacity)
	seq, ran, err := e.sim.sequential(e.prog, s.cfg.Engine)
	if err != nil {
		return nil, err
	}
	s.countRow(ran)
	models, need := e.sim.models(seq, cfg)
	var runs [2]*engine.Result
	for i, mode := range specModes {
		if !need[i] {
			s.countRow(false)
			continue
		}
		if runs[i], err = engine.RunSpeculative(e.prog, e.labs, cfg, mode); err != nil {
			return nil, err
		}
		s.countRow(true)
	}
	for i, r := range runs {
		if r == nil {
			continue
		}
		if err := engine.LiveOutMismatch(e.prog, e.labs, seq, r); err != nil {
			return nil, fmt.Errorf("%v run produced wrong results: %v", r.Mode, err)
		}
		models[i+1] = modelRow(r, seq.Cycles, cfg.Processors)
		e.sim.keep(cfg, r.Mode, models[i+1])
		s.metrics.traceCompiled.Add(r.Stats.TracesCompiled)
		s.metrics.traceBailouts.Add(r.Stats.TraceBailouts)
		s.metrics.guardElided.Add(r.Stats.TraceElidedOps)
	}
	return renderSimulate(e, cfg, models)
}

// answerKept answers a simulate in the request goroutine when its
// resolved entry keeps every row of the request's machine, assembling
// and rendering the rows through models and renderSimulate like the
// worker path. It reports false, having changed nothing, when some row
// needs an engine run (or the rendering fails, which the worker path then
// reports); the request is then admitted.
func (s *Server) answerKept(key taskKey, e programEntry) ([]byte, bool) {
	seq, ok := e.sim.ranSequential()
	if !ok {
		return nil, false
	}
	cfg := s.machine(key.procs, key.capacity)
	models, need := e.sim.models(seq, cfg)
	if need != [2]bool{} {
		return nil, false
	}
	resp, err := renderSimulate(e, cfg, models)
	if err != nil {
		return nil, false
	}
	for range models {
		s.countRow(false)
	}
	s.metrics.simAnsweredKept.Add(1)
	return resp, true
}

// renderSimulate renders the simulate document of a program-tier entry's
// model rows on machine cfg; both simulate paths answer through it.
func renderSimulate(e programEntry, cfg engine.Config, models []ModelRow) ([]byte, error) {
	return api.RenderSimulate(&SimulateResponse{
		Op:           OpSimulate,
		Program:      e.prog.Name,
		Fingerprint:  hex.EncodeToString(e.fp[:]),
		Processors:   cfg.Processors,
		SpecCapacity: cfg.SpecCapacity,
		Models:       models,
		Verified:     true,
	})
}

// countRow advances sim_rows_computed for a row that was run, or
// sim_rows_reused for one served from the program-tier entry.
func (s *Server) countRow(computed bool) {
	if computed {
		s.metrics.simRowsComputed.Add(1)
	} else {
		s.metrics.simRowsReused.Add(1)
	}
}

// modelRow renders one model's row of a simulate document; seqCycles is
// the sequential run's, the speedup baseline, and procs the machine's
// processor count.
func modelRow(r *engine.Result, seqCycles int64, procs int) ModelRow {
	row := ModelRow{
		Mode:                r.Mode.String(),
		Cycles:              r.Cycles,
		Speedup:             float64(seqCycles) / float64(r.Cycles),
		DynRefs:             r.Stats.DynRefs,
		IdemRefs:            r.Stats.IdemRefs,
		Overflows:           r.Stats.Overflows,
		OverflowStallCycles: r.Stats.OverflowStallCycles,
		FlowViolations:      r.Stats.FlowViolations,
		ControlViolations:   r.Stats.ControlViolations,
		PeakSpecOccupancy:   r.Stats.PeakSpecOccupancy,
	}
	if r.Mode != engine.Sequential && r.Cycles > 0 {
		row.UtilizationPct = 100 * float64(r.Stats.BusyCycles) /
			float64(int64(procs)*r.Cycles)
	}
	return row
}
