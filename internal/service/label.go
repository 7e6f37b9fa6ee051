package service

// The two labeling tiers. Every label response, full or delta, is
// assembled from rendered region rows, and the base registry keeps them:
// its entry for a program holds, besides the canonical source deltas
// compose against, the rows per "deps" flag that the program's label
// responses were built from. A label reuses its own program's rows when
// the registry holds them and, for a delta, the base's rows of regions
// whose analysis fingerprint (ir.RegionFingerprintOf) the patches left
// unchanged; only the other regions are labeled and rendered, once, and
// the program is registered with all of its rows. So rows live and die
// with their base: Config.DeltaBases bounds them. A row carries a
// dependence list only when its request asked for one, so a deps-less
// label renders no dependences. Simulate and timeline requests drive the
// engine with the whole program's labeling; they read the program tier,
// an LRU of labeled programs by content fingerprint, whose entries also
// carry the program's simulation state (simulate.go). A program is
// admitted on its second lookup: the first labels it into probation, a
// small LRU in front of the tier, and a later lookup that finds it there
// promotes it, so the many programs of mixed traffic that are simulated
// once never displace the repeated ones. The tier also holds alias
// entries: a program or example simulate that found its program in the
// tier or promoted it stores the entry under its request's selector
// digest too, so a later repeat of the same text finds the program
// without parsing it. Neither tier single-flights: identical requests
// already coalesce at admission.

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

// baseEntry is the base registry's entry for one program: its canonical
// source, which deltas against the program compose with, and the rendered
// region rows of its label responses, rows[1] for "deps" requests and
// rows[0] for the others, one per region in program order under the
// region analysis fingerprints in fps. A nil rows list means no label of
// that flag has registered the program yet. A stored entry is never
// mutated: registering more rows stores a new entry.
type baseEntry struct {
	src  string
	fps  []ir.Fingerprint
	rows [2][]RegionLabeling
}

// flagIndex is the rows index of a "deps" flag.
func flagIndex(deps bool) int {
	if deps {
		return 1
	}
	return 0
}

// rowOf returns e's row under flag of the region whose analysis
// fingerprint is fp, trying position i first: patches replace regions in
// place and append new ones, so an unchanged region keeps its base
// position. A nil e holds no rows.
func (e *baseEntry) rowOf(flag, i int, fp ir.Fingerprint) (RegionLabeling, bool) {
	if e == nil || e.rows[flag] == nil {
		return RegionLabeling{}, false
	}
	if i < len(e.fps) && e.fps[i] == fp {
		return e.rows[flag][i], true
	}
	for j, f := range e.fps {
		if f == fp {
			return e.rows[flag][j], true
		}
	}
	return RegionLabeling{}, false
}

// label answers an OpLabel task region by region. When the registry
// holds the program's own rows for the task's flag, the document is
// those rows. Otherwise a delta's regions reuse the base's row of equal
// analysis fingerprint, the rest are labeled through the same pipeline
// body LabelProgram uses and rendered once, and the task keeps the
// fingerprints and rows for run to register. With the registry off every
// region is labeled.
func (s *Server) label(t *task) ([]byte, error) {
	prog := t.entry.prog
	doc := LabelResponse{
		Op:          OpLabel,
		Program:     prog.Name,
		Fingerprint: hex.EncodeToString(t.key.fp[:]),
	}
	flag := flagIndex(t.key.deps)
	if own := s.baseOf(t.key.fp); own != nil && own.rows[flag] != nil {
		doc.Regions = own.rows[flag]
		if t.base != nil {
			s.metrics.regionsReused.Add(int64(len(doc.Regions)))
		}
		return api.RenderLabel(&doc)
	}
	doc.Regions = make([]RegionLabeling, 0, len(prog.Regions))
	var fps []ir.Fingerprint
	if s.bases != nil {
		fps = make([]ir.Fingerprint, len(prog.Regions))
	}
	infos := dataflow.AnalyzeProgram(prog)
	for i, r := range prog.Regions {
		info := infos[r]
		var row RegionLabeling
		ok := false
		if fps != nil {
			fps[i] = ir.RegionFingerprintOf(prog, r, func(v *ir.Var) bool { return info.LiveOut(v) })
			row, ok = t.base.rowOf(flag, i, fps[i])
		}
		if !ok {
			res, err := labelChecked(r, info)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			row = renderRegionLabeling(r, res, t.key.deps)
		}
		if t.base != nil {
			if ok {
				s.metrics.regionsReused.Add(1)
			} else {
				s.metrics.regionsRelabeled.Add(1)
			}
		}
		doc.Regions = append(doc.Regions, row)
	}
	if fps != nil {
		t.fps, t.rows = fps, doc.Regions
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
