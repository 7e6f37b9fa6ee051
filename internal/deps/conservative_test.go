package deps

import (
	"testing"

	"refidem/internal/cfg"
	"refidem/internal/ir"
)

func TestConservativeMirrorsEveryDep(t *testing.T) {
	p := ir.NewProgram("t")
	av := p.AddVar("a", 16)
	r := &ir.Region{Name: "r", Kind: ir.LoopRegion, Index: "k", From: 1, To: 8, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(av, ir.Idx("k")), RHS: ir.Rd(av, ir.SubE(ir.Idx("k"), ir.C(1)))},
		}}}}
	r.Finalize()
	p.AddRegion(r)
	a := Analyze(r, cfg.FromRegion(r))
	c := Conservative(a)
	// Every original dep and its mirror must be present.
	for _, d := range a.All {
		found, mirrored := false, false
		for _, e := range c.All {
			if e.Src == d.Src && e.Dst == d.Dst && e.Cross == d.Cross {
				found = true
			}
			if e.Src == d.Dst && e.Dst == d.Src && e.Cross == d.Cross {
				mirrored = true
			}
		}
		if !found || !mirrored {
			t.Errorf("dep %s: found=%v mirrored=%v", a.Text(d), found, mirrored)
		}
	}
	// Both endpoints become sinks.
	rd, wr := r.Refs[0], r.Refs[1]
	if !c.IsCrossSink(rd) || !c.IsCrossSink(wr) {
		t.Error("conservative analysis should make both endpoints cross sinks")
	}
	// Mirrored kinds follow the access types: the reversed flow (w->r)
	// becomes an anti (r->w).
	hasAnti := false
	for _, e := range c.SinksAt(wr) {
		if d := c.All[e]; d.Kind == Anti && d.Src == int32(rd.ID) {
			hasAnti = true
		}
	}
	if !hasAnti {
		t.Error("mirror of the flow dep should be an anti dep")
	}
}

func TestConservativeOnDependenceFreeRegion(t *testing.T) {
	p := ir.NewProgram("t")
	av := p.AddVar("a", 16)
	bv := p.AddVar("b", 16)
	r := &ir.Region{Name: "r", Kind: ir.LoopRegion, Index: "k", From: 0, To: 7, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(av, ir.Idx("k")), RHS: ir.Rd(bv, ir.Idx("k"))},
		}}}}
	r.Finalize()
	p.AddRegion(r)
	c := Conservative(Analyze(r, cfg.FromRegion(r)))
	if len(c.All) != 0 || hasCross(c) {
		t.Errorf("independent loop should stay dependence-free: %v", texts(c))
	}
}
