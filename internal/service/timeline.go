package service

// The speculation-timeline export endpoint: /v1/simulate?timeline=1
// answers with the Chrome trace-event JSON of the request's HOSE and
// CASE runs instead of the simulate response document. The export
// deliberately bypasses the admission queue, the response byte cache and
// the persistent store — it is a debugging artifact keyed to one
// request, not a cacheable response — but labeling still goes through
// the program tier, so a timeline request warms the same labeled program
// later simulate requests reuse. Timeline timestamps are simulated
// cycles: the document is deterministic for a given program and machine.

import (
	"context"
	"errors"
	"fmt"
	"io"

	"refidem/internal/engine"
	"refidem/internal/ir"
	"refidem/internal/obs"
)

// SimulateTimeline labels the request's program, runs it under HOSE and
// CASE with speculation timelines attached, and writes the combined
// Chrome trace-event document to w. The request is validated and its
// parameters (procs, capacity) apply exactly as on Simulate.
func (s *Server) SimulateTimeline(ctx context.Context, req Request, w io.Writer) error {
	_ = ctx // the export runs inline; no queue wait to cancel
	s.metrics.timelineRequests.Add(1)
	req.Op = OpSimulate
	if err := validate(req); err != nil {
		return err
	}
	if s.closing.Load() {
		return ErrClosed
	}
	prog, err := s.resolveRequest(req)
	if err != nil {
		if !errors.Is(err, ErrUnknownBase) {
			err = fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return err
	}
	prog, labs, err := s.labeled(ir.FingerprintOf(prog), prog)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	cfg := s.cfg.Engine
	if req.Procs > 0 {
		cfg.Processors = req.Procs
	}
	if req.Capacity > 0 {
		cfg.SpecCapacity = req.Capacity
	}
	named := make([]obs.NamedTimeline, 0, 2)
	for _, mode := range []engine.Mode{engine.HOSE, engine.CASE} {
		tl := &obs.Timeline{}
		cfg.Timeline = tl
		if _, err := engine.RunSpeculative(prog, labs, cfg, mode); err != nil {
			return err
		}
		named = append(named, obs.NamedTimeline{Name: mode.String(), T: tl})
	}
	return obs.WriteChromeTrace(w, named)
}
