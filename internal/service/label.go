package service

// The two labeling tiers. Every label response, full or delta, is
// assembled from rendered region rows cached by region analysis
// fingerprint (ir.RegionFingerprintOf) and the request's "deps" flag: a
// region whose labeling inputs were seen before, in any program, reuses
// its row, and only the others are labeled and rendered, once. A row
// carries a dependence list only when its request asked for one, so a
// deps-less label renders no dependences. Simulate and timeline requests
// drive the engine with the whole program's labeling; they read the
// program tier, an LRU of labeled programs by content fingerprint, whose
// entries also carry the program's simulation state (simulate.go). The
// same LRU holds alias entries: a program or example simulate that found
// its program by fingerprint stores the entry under its request's
// selector digest too, so a later repeat of the same text finds the
// program without parsing it. Neither tier single-flights:
// identical requests already coalesce at admission.

import (
	"encoding/hex"
	"fmt"

	"refidem/internal/api"
	"refidem/internal/dataflow"
	"refidem/internal/idem"
	"refidem/internal/ir"
)

// programEntry is a resolved program: its fingerprint, canonical source
// and parse. A program-tier entry also carries the labeling, whose maps
// are keyed by that program's refs — callers run this program, not their
// own parse of it — and the simulation state (simulate.go); a program the
// tier does not hold yet has neither, and labs and sim stay nil. The
// labeling keeps only what the engine reads (idem.Result.DropArtifacts):
// nothing renders an entry's dependences or RFW flags, since label
// responses come from region rows.
type programEntry struct {
	fp        ir.Fingerprint
	canonical string
	prog      *ir.Program
	labs      map[*ir.Region]*idem.Result
	sim       *simMemo
}

// progKey is a program-tier key: a program fingerprint, or with alias set
// the selector digest (api.Key.Selector) of a program or example request
// whose simulate found the entry by fingerprint (Server.remember). Both
// kinds count toward Config.CacheCapacity and are evicted independently.
type progKey struct {
	sum   [32]byte
	alias bool
}

// labelChecked labels one region and verifies the result against the
// paper's theorems before anything caches it.
func labelChecked(r *ir.Region, info *dataflow.RegionInfo) (*idem.Result, error) {
	res := idem.LabelRegionWithInfo(r, info)
	if errs := res.CheckTheorems(); len(errs) > 0 {
		return nil, fmt.Errorf("region %s: theorem check failed: %v", r.Name, errs[0])
	}
	return res, nil
}

// fragKey identifies a rendered region row: the region's analysis
// fingerprint and whether the row carries its dependence list.
type fragKey struct {
	fp   ir.Fingerprint
	deps bool
}

// label answers an OpLabel task region by region: rows cached under the
// region's fragment key are reused verbatim, the rest are labeled through
// the same pipeline body LabelProgram uses and rendered once.
func (s *Server) label(t *task) ([]byte, error) {
	prog := t.entry.prog
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	infos := dataflow.AnalyzeProgram(prog)
	doc := LabelResponse{
		Op:          OpLabel,
		Program:     prog.Name,
		Fingerprint: hex.EncodeToString(t.key.fp[:]),
		Regions:     make([]RegionLabeling, 0, len(prog.Regions)),
	}
	for _, r := range prog.Regions {
		info := infos[r]
		fk := fragKey{
			fp:   ir.RegionFingerprintOf(prog, r, func(v *ir.Var) bool { return info.LiveOut(v) }),
			deps: t.key.deps,
		}
		var row RegionLabeling
		ok := false
		if s.frags != nil {
			row, ok = s.frags.Get(fk)
		}
		if !ok {
			res, err := labelChecked(r, info)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			row = renderRegionLabeling(r, res, t.key.deps)
			if s.frags != nil {
				s.frags.Put(fk, row)
			}
		}
		if t.delta {
			if ok {
				s.metrics.regionsReused.Add(1)
			} else {
				s.metrics.regionsRelabeled.Add(1)
			}
		}
		doc.Regions = append(doc.Regions, row)
	}
	return api.RenderLabel(&doc)
}

// labeled returns the program tier's entry for a resolved program: e
// itself when resolution found it in the tier, otherwise the entry a
// concurrent request has stored since, or e labeled and stored.
// Concurrent misses on one fingerprint all get the entry stored first, so
// they share its simulation state.
func (s *Server) labeled(e programEntry) (programEntry, error) {
	if e.sim != nil {
		return e, nil
	}
	key := progKey{sum: e.fp}
	if stored, ok := s.programs.Get(key); ok {
		return stored, nil
	}
	p := e.prog
	if err := p.Validate(); err != nil {
		return programEntry{}, err
	}
	infos := dataflow.AnalyzeProgram(p)
	e.labs = make(map[*ir.Region]*idem.Result, len(p.Regions))
	for _, r := range p.Regions {
		res, err := labelChecked(r, infos[r])
		if err != nil {
			return programEntry{}, err
		}
		res.DropArtifacts()
		e.labs[r] = res
	}
	e.sim = &simMemo{}
	return s.programs.GetOrPut(key, e), nil
}
