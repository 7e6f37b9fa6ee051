package service

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"refidem/internal/api"
	"refidem/internal/engine"
	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/lang"
	"refidem/internal/workloads"
)

// The wire protocol lives in internal/api — one versioned definition
// shared by this server, the typed client, the daemons and the router.
// The aliases keep the service package's historical names compiling for
// in-process callers; they are the same types, so the JSON bytes are
// unchanged by construction.
const (
	OpLabel    = api.OpLabel
	OpSimulate = api.OpSimulate
)

// Aliased wire documents (see internal/api for field documentation).
type (
	Request          = api.Request
	RegionPatch      = api.RegionPatch
	LabelResponse    = api.LabelResponse
	RegionLabeling   = api.RegionLabeling
	CategoryFraction = api.CategoryFraction
	RefLabel         = api.RefLabel
	SimulateResponse = api.SimulateResponse
	ModelRow         = api.ModelRow
	BatchRequest     = api.BatchRequest
	BatchResponse    = api.BatchResponse
	Health           = api.Health
)

// Aliased error taxonomy (see internal/api). errors.Is against these
// works for in-process and wire errors alike.
var (
	ErrBadRequest  = api.ErrBadRequest
	ErrOverloaded  = api.ErrOverloaded
	ErrClosed      = api.ErrClosed
	ErrTimeout     = api.ErrTimeout
	ErrUnknownBase = api.ErrUnknownBase
)

// validate is the one structural check of a request, shared by DoTraced
// and SimulateTimeline. It runs before the response-cache lookup: the
// cache keys on one program selector, so a malformed request (several
// selectors set, or bad parameters) could otherwise collide with a cached
// valid request and be accepted or rejected depending on cache warmth.
func validate(req Request) error {
	if req.Op != OpLabel && req.Op != OpSimulate {
		return fmt.Errorf("%w: unknown op %q (want %q or %q)", ErrBadRequest, req.Op, OpLabel, OpSimulate)
	}
	selectors := 0
	for _, set := range []bool{req.Program != "", req.Example != "", req.Base != ""} {
		if set {
			selectors++
		}
	}
	if selectors > 1 {
		return fmt.Errorf("%w: use exactly one of program, example or base, not both or all three", ErrBadRequest)
	}
	if len(req.Patches) > 0 && req.Base == "" {
		return fmt.Errorf("%w: patches require a base fingerprint", ErrBadRequest)
	}
	if req.Procs < 0 || req.Capacity < 0 {
		return fmt.Errorf("%w: procs and capacity must be non-negative", ErrBadRequest)
	}
	return nil
}

// resolveProgram parses or looks up the program of a validated request.
// The program is resolved in the submitting goroutine, so admission
// rejects malformed sources before they consume queue space. Delta
// requests (req.Base != "") are resolved by the server's resolveRequest,
// which has access to the base registry; this free function handles the
// stateless selectors.
func resolveProgram(req Request) (*ir.Program, error) {
	switch {
	case req.Program != "":
		return lang.Parse(req.Program)
	case req.Example != "":
		switch req.Example {
		case "fig1", "intro":
			return workloads.IntroExample(), nil
		case "fig2":
			return workloads.Figure2(), nil
		case "fig3":
			return workloads.Figure3(), nil
		case "buts", "fig4":
			return workloads.ButsDO1(8), nil
		default:
			return nil, fmt.Errorf("unknown example %q (want fig1, fig2, fig3, buts)", req.Example)
		}
	default:
		return nil, fmt.Errorf("empty request: pass program source, an example name, or a base fingerprint with patches")
	}
}

// marshalResponse renders a response document: two-space indent, trailing
// newline. encoding/json emits struct fields in declaration order and
// formats floats with the shortest round-trip representation, so the
// bytes are a pure function of the document.
func marshalResponse(doc any) ([]byte, error) {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// renderRegionLabeling builds one region's row of a label document from
// its labeling result. Every label response is assembled from these rows
// through the fragment cache, so a reused fragment is byte-identical to a
// fresh rendering by construction. The Deps list is always rendered (the
// fragment cache stores it once and strips it for requests that did not
// ask); stripDeps below removes it.
func renderRegionLabeling(r *ir.Region, res *idem.Result) RegionLabeling {
	total, byCat := res.IdempotentFraction()
	reg := RegionLabeling{
		Name:             r.Name,
		Kind:             fmt.Sprint(r.Kind),
		FullyIndependent: res.FullyIndependent,
		IdemFraction:     total,
		Refs:             make([]RefLabel, 0, len(r.Refs)),
	}
	for _, c := range []idem.Category{idem.CatReadOnly, idem.CatPrivate, idem.CatSharedDependent, idem.CatFullyIndependent} {
		if f := byCat[c]; f > 0 {
			reg.Categories = append(reg.Categories, CategoryFraction{Category: c.String(), Fraction: f})
		}
	}
	for _, ref := range r.Refs {
		segName := fmt.Sprint(ref.SegID)
		if s := r.Seg(ref.SegID); s != nil && s.Name != "" {
			segName = s.Name
		}
		row := RefLabel{
			Ref:       refText(ref),
			Segment:   segName,
			Label:     res.Label(ref).String(),
			Category:  res.Category(ref).String(),
			CrossSink: res.Deps.IsCrossSink(ref),
		}
		if ref.Access == ir.Write {
			isRFW := res.RFW.IsRFW(ref)
			row.RFW = &isRFW
		}
		reg.Refs = append(reg.Refs, row)
	}
	reg.Deps = make([]string, 0, len(res.Deps.All))
	for _, d := range res.Deps.All {
		reg.Deps = append(reg.Deps, fmt.Sprint(d))
	}
	sort.Strings(reg.Deps)
	return reg
}

// stripDeps returns the row without its dependence list (requests that
// did not set "deps"). Rows are value types, so the fragment cache's
// copy is untouched.
func stripDeps(reg RegionLabeling) RegionLabeling {
	reg.Deps = nil
	return reg
}

// traceTally aggregates the trace-JIT counters of one simulate
// computation (all zero when the server runs untraced). It rides next to
// the response bytes so the metrics counters can advance without the
// JSON document changing shape.
type traceTally struct {
	compiled int64
	bailouts int64
	elided   int64
}

// renderSimulateResponse executes the labeled program under all three
// models on cfg, verifies the speculative runs against the sequential
// memory state, and builds the simulate document.
func renderSimulateResponse(fp ir.Fingerprint, p *ir.Program, labs map[*ir.Region]*idem.Result, cfg engine.Config) ([]byte, traceTally, error) {
	var tt traceTally
	seq, err := engine.RunSequential(p, cfg)
	if err != nil {
		return nil, tt, err
	}
	hose, err := engine.RunSpeculative(p, labs, cfg, engine.HOSE)
	if err != nil {
		return nil, tt, err
	}
	caseR, err := engine.RunSpeculative(p, labs, cfg, engine.CASE)
	if err != nil {
		return nil, tt, err
	}
	for _, r := range []*engine.Result{hose, caseR} {
		tt.compiled += r.Stats.TracesCompiled
		tt.bailouts += r.Stats.TraceBailouts
		tt.elided += r.Stats.TraceElidedOps
	}
	for _, r := range []*engine.Result{hose, caseR} {
		if err := engine.LiveOutMismatch(p, labs, seq, r); err != nil {
			return nil, tt, fmt.Errorf("%v run produced wrong results: %v", r.Mode, err)
		}
	}
	doc := SimulateResponse{
		Op:           OpSimulate,
		Program:      p.Name,
		Fingerprint:  hex.EncodeToString(fp[:]),
		Processors:   cfg.Processors,
		SpecCapacity: cfg.SpecCapacity,
		Verified:     true,
	}
	for _, r := range []*engine.Result{seq, hose, caseR} {
		row := ModelRow{
			Mode:                r.Mode.String(),
			Cycles:              r.Cycles,
			Speedup:             float64(seq.Cycles) / float64(r.Cycles),
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
				float64(int64(cfg.Processors)*r.Cycles)
		}
		doc.Models = append(doc.Models, row)
	}
	b, err := marshalResponse(doc)
	return b, tt, err
}

// refText renders a reference as "access var[subs]" (the cmd/idemlabel
// convention).
func refText(ref *ir.Ref) string {
	s := ref.Var.Name
	if len(ref.Subs) > 0 {
		s += "["
		for i, sub := range ref.Subs {
			if i > 0 {
				s += ","
			}
			s += sub.String()
		}
		s += "]"
	}
	return fmt.Sprintf("%s %s", ref.Access, s)
}
