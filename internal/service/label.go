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
// entries also carry the program's simulation state (simulate.go). A
// program is admitted on its second lookup: the first labels it into
// probation, a small LRU in front of the tier, and a later lookup that
// finds it there promotes it, so the many programs of mixed traffic that
// are simulated once never displace the repeated ones. The tier also
// holds alias entries: a program or example simulate that found its
// program in the tier or promoted it stores the entry under its request's
// selector digest too, so a later repeat of the same text finds the
// program without parsing it. Neither tier single-flights: identical
// requests already coalesce at admission.

import (
	"encoding/hex"
	"fmt"

	"refidem/internal/api"
	"refidem/internal/dataflow"
	"refidem/internal/idem"
	"refidem/internal/ir"
)

// programEntry is a resolved program: its fingerprint, canonical source
// and parse. A program-tier or probation entry also carries the labeling,
// whose maps are keyed by that program's refs — callers run this
// program, not their own parse of it — and the simulation state
// (simulate.go); a program neither holds yet has neither, and labs and
// sim stay nil. The labeling keeps only what the engine reads
// (idem.Result.DropArtifacts): nothing renders an entry's dependences or
// RFW flags, since label responses come from region rows.
type programEntry struct {
	fp        ir.Fingerprint
	canonical string
	prog      *ir.Program
	labs      map[*ir.Region]*idem.Result
	sim       *simMemo
}

// progKey is a program-tier key: a program fingerprint, or with alias set
// the selector digest (api.Key.Selector) of a program or example request
// whose simulate found the entry in the tier or promoted it
// (Server.remember). Both kinds count toward Config.CacheCapacity and are
// evicted independently.
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

// labeled returns the labeled entry of a resolved program: e itself when
// resolution found it in the program tier or promoted it there, otherwise
// the entry the tier or probation holds by now, or e labeled and stored in
// probation. Concurrent misses on one fingerprint all get the entry
// stored first, so they share its simulation state; a resolution that
// promotes that entry meanwhile stores it in the tier, which the last
// lookup finds.
func (s *Server) labeled(e programEntry) (programEntry, error) {
	if e.sim != nil {
		return e, nil
	}
	key := progKey{sum: e.fp}
	if stored, ok := s.programs.Get(key); ok {
		return stored, nil
	}
	if stored, ok := s.probation.Get(e.fp); ok {
		return stored, nil
	}
	p := e.prog
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
	e = s.probation.GetOrPut(e.fp, e)
	if stored, ok := s.programs.Get(key); ok {
		return stored, nil
	}
	return e, nil
}

// promote moves the probation entry of fp into the program tier, where
// only programs looked up a second time live, and returns the tier's
// entry for fp; it reports false when probation does not hold fp.
func (s *Server) promote(fp ir.Fingerprint) (programEntry, bool) {
	e, ok := s.probation.Get(fp)
	if !ok {
		return programEntry{}, false
	}
	stored := s.programs.GetOrPut(progKey{sum: fp}, e)
	if s.probation.Remove(fp) {
		s.promotions.Add(1)
	}
	return stored, true
}
