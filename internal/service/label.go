package service

// The two labeling tiers. Every label response, full or delta, is
// assembled from rendered region rows cached by region analysis
// fingerprint (ir.RegionFingerprintOf): a region whose labeling inputs
// were seen before, in any program, reuses its row, and only the others
// are labeled and rendered, once. Simulate and timeline requests drive
// the engine with the whole program's labeling; they read the program
// tier, an LRU of labeled programs by content fingerprint. Neither tier
// single-flights: identical requests already coalesce at admission.

import (
	"encoding/hex"
	"fmt"

	"refidem/internal/callgraph"
	"refidem/internal/dataflow"
	"refidem/internal/deps"
	"refidem/internal/idem"
	"refidem/internal/ir"
)

// programEntry is one program-tier entry: a canonical program and its
// labeling, whose maps are keyed by that program's refs — callers run
// this program, not their own parse of it.
type programEntry struct {
	prog *ir.Program
	labs map[*ir.Region]*idem.Result
}

// regionLabeler returns the per-region labeling function Config.Ensemble
// selects for p. Both tiers label through it.
func (s *Server) regionLabeler(p *ir.Program) func(*ir.Region, *dataflow.RegionInfo) *idem.Result {
	if !s.cfg.Ensemble {
		return idem.LabelRegionWithInfo
	}
	ens := deps.Ensemble{Range: true, MustWriteFirst: true, Summaries: callgraph.Analyze(p)}
	return func(r *ir.Region, info *dataflow.RegionInfo) *idem.Result {
		return idem.LabelRegionEnsembleWithInfo(r, info, &ens)
	}
}

// labelChecked labels one region and verifies the result against the
// paper's theorems before anything caches it.
func labelChecked(label func(*ir.Region, *dataflow.RegionInfo) *idem.Result, r *ir.Region, info *dataflow.RegionInfo) (*idem.Result, error) {
	res := label(r, info)
	if errs := res.CheckTheorems(); len(errs) > 0 {
		return nil, fmt.Errorf("region %s: theorem check failed: %v", r.Name, errs[0])
	}
	return res, nil
}

// label answers an OpLabel task region by region: rows cached under the
// region's analysis fingerprint are reused verbatim, the rest are labeled
// through the same pipeline body LabelProgram uses and rendered once.
func (s *Server) label(t *task) ([]byte, error) {
	prog := t.prog
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	infos := dataflow.AnalyzeProgram(prog)
	var labeler func(*ir.Region, *dataflow.RegionInfo) *idem.Result // built on the first miss
	doc := LabelResponse{
		Op:          OpLabel,
		Program:     prog.Name,
		Fingerprint: hex.EncodeToString(t.key.fp[:]),
		Regions:     make([]RegionLabeling, 0, len(prog.Regions)),
	}
	for _, r := range prog.Regions {
		info := infos[r]
		fk := ir.RegionFingerprintOf(prog, r, func(v *ir.Var) bool { return info.LiveOut(v) })
		var row RegionLabeling
		ok := false
		if s.frags != nil {
			row, ok = s.frags.Get(fk)
		}
		if !ok {
			if labeler == nil {
				labeler = s.regionLabeler(prog)
			}
			res, err := labelChecked(labeler, r, info)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			row = renderRegionLabeling(r, res)
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
		if !t.key.deps {
			row = stripDeps(row)
		}
		doc.Regions = append(doc.Regions, row)
	}
	return marshalResponse(doc)
}

// labeled returns the program tier's canonical program and labeling for
// fingerprint fp, labeling p on a miss.
func (s *Server) labeled(fp ir.Fingerprint, p *ir.Program) (*ir.Program, map[*ir.Region]*idem.Result, error) {
	if e, ok := s.programs.Get(fp); ok {
		s.progHits.Add(1)
		return e.prog, e.labs, nil
	}
	s.progMisses.Add(1)
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	infos := dataflow.AnalyzeProgram(p)
	labeler := s.regionLabeler(p)
	labs := make(map[*ir.Region]*idem.Result, len(p.Regions))
	for _, r := range p.Regions {
		res, err := labelChecked(labeler, r, infos[r])
		if err != nil {
			return nil, nil, err
		}
		labs[r] = res
	}
	s.programs.Put(fp, programEntry{prog: p, labs: labs})
	return p, labs, nil
}
