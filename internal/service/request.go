package service

import (
	"fmt"
	"slices"
	"strconv"

	"refidem/internal/api"
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
		return workloads.Example(req.Example)
	default:
		return nil, fmt.Errorf("empty request: pass program source, an example name, or a base fingerprint with patches")
	}
}

// renderRegionLabeling builds one region's row of a label document from
// its labeling result. Every label response is assembled from these rows
// through the fragment cache, so a reused fragment is byte-identical to a
// fresh rendering by construction. The dependence list is rendered only
// when withDeps is set (the request's "deps" flag), which is why the flag
// is part of a fragment's key.
func renderRegionLabeling(r *ir.Region, res *idem.Result, withDeps bool) RegionLabeling {
	total, byCat := res.IdempotentFraction()
	reg := RegionLabeling{
		Name:             r.Name,
		Kind:             r.Kind.String(),
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
		var segName string
		if s := r.Seg(ref.SegID); s != nil {
			segName = s.Name
		}
		if segName == "" {
			segName = strconv.Itoa(ref.SegID)
		}
		row := RefLabel{
			Ref:       ref.AccessText(),
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
	if withDeps {
		reg.Deps = make([]string, 0, len(res.Deps.All))
		for _, d := range res.Deps.All {
			reg.Deps = append(reg.Deps, d.String())
		}
		slices.Sort(reg.Deps)
	}
	return reg
}
