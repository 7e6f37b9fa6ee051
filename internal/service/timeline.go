package service

// The speculation-timeline export endpoint: /v1/simulate?timeline=1
// answers with the Chrome trace-event JSON of the request's HOSE and
// CASE runs instead of the simulate response document. The export
// deliberately bypasses the admission queue, the response byte cache and
// the persistent store — it is a debugging artifact keyed to one
// request, not a cacheable response — but it resolves its program through
// the same lookup as a simulate (Server.resolve), so a text an earlier
// simulate resolved is found by its selector digest without a parse, and
// a new program is labeled into the program tier that later simulates
// reuse. Timeline timestamps are simulated cycles: the document is
// deterministic for a given program and machine.

import (
	"context"
	"errors"
	"fmt"
	"io"

	"refidem/internal/api"
	"refidem/internal/engine"
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
	if err := api.Validate(req); err != nil {
		return err
	}
	if s.closing.Load() {
		return ErrClosed
	}
	e, _, _, err := s.resolve(req, api.KeyOf(req).Selector())
	if err != nil {
		if !errors.Is(err, ErrUnknownBase) {
			err = fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return err
	}
	if e, err = s.labeled(e); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	cfg := s.machine(req.Procs, req.Capacity)
	named := make([]obs.NamedTimeline, 0, 2)
	for _, mode := range specModes {
		tl := &obs.Timeline{}
		cfg.Timeline = tl
		if _, err := engine.RunSpeculative(e.prog, e.labs, cfg, mode); err != nil {
			return err
		}
		named = append(named, obs.NamedTimeline{Name: mode.String(), T: tl})
	}
	return obs.WriteChromeTrace(w, named)
}
