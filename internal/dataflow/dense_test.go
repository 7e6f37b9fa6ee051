package dataflow

// Differential test keeping the stand-alone SegAttrs walker and the
// dense-index region walk of AnalyzeRegion in lockstep across a
// population of generated programs.

import (
	"testing"

	"refidem/internal/gen"
	"refidem/internal/ir"
)

// SegAttrs computes the Algorithm 1 attribute of every variable referenced
// in the segment, at whole-variable granularity. Array element writes never
// must-define the whole array (the write covers one cell), so arrays with
// any read get ReadAttr and arrays with only writes get NullAttr; the
// loop-region RFW analysis refines arrays location-wise using dependence
// tests instead. Scalars are tracked precisely through the structured
// control flow of the segment body.
//
// SegAttrs is the standalone, map-returning form the tests use as an
// oracle; AnalyzeRegion runs the same walker over the dense region index
// (TestSegAttrsMatchesDenseWalk keeps the two in lockstep).
func SegAttrs(seg *ir.Segment) map[*ir.Var]Attr {
	// Number the segment's variables locally, then run the dense walker.
	// Reference IDs may be unassigned here (stand-alone segments), so the
	// walker resolves variables through the per-ref map instead of the
	// region index.
	local := make(map[*ir.Var]int32)
	var vars []*ir.Var
	byRef := make(map[*ir.Ref]int32)
	walkSegRefs(seg, func(ref *ir.Ref) {
		l, ok := local[ref.Var]
		if !ok {
			l = int32(len(vars))
			local[ref.Var] = l
			vars = append(vars, ref.Var)
		}
		byRef[ref] = l
	})

	w := walker{byRef: byRef, nv: len(vars)}
	states := w.row()
	w.walk(seg.Body, states)
	if seg.Branch != nil {
		w.exprReads(seg.Branch, states)
	}
	out := make(map[*ir.Var]Attr, len(vars))
	for i, v := range vars {
		if a := attrOf(states[i]); states[i].referenced {
			out[v] = a
		}
	}
	return out
}

// walkSegRefs visits every reference of the segment in evaluation order
// without allocating.
func walkSegRefs(seg *ir.Segment, f func(*ir.Ref)) {
	var stmts func([]ir.Stmt)
	var expr func(ir.Expr)
	expr = func(e ir.Expr) {
		switch x := e.(type) {
		case *ir.Load:
			for _, sub := range x.Ref.Subs {
				expr(sub)
			}
			f(x.Ref)
		case *ir.Bin:
			expr(x.L)
			expr(x.R)
		}
	}
	stmts = func(list []ir.Stmt) {
		for _, st := range list {
			switch s := st.(type) {
			case *ir.Assign:
				expr(s.RHS)
				for _, sub := range s.LHS.Subs {
					expr(sub)
				}
				f(s.LHS)
			case *ir.If:
				expr(s.Cond)
				stmts(s.Then)
				stmts(s.Else)
			case *ir.For:
				stmts(s.Body)
			case *ir.ExitRegion:
				expr(s.Cond)
			case *ir.Call:
				// Arguments are load-free; the references live in the
				// per-callsite expansion.
				stmts(s.Inlined)
			}
		}
	}
	stmts(seg.Body)
	if seg.Branch != nil {
		expr(seg.Branch)
	}
}

func TestSegAttrsMatchesDenseWalk(t *testing.T) {
	for _, prof := range gen.Profiles() {
		for seed := int64(1); seed <= 25; seed++ {
			sc := gen.Generate(seed, prof.Cfg)
			p := sc.Program
			if err := p.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", prof.Name, seed, err)
			}
			for _, r := range p.Regions {
				info := AnalyzeRegion(p, r, nil)
				idx := info.Index()
				for _, seg := range r.Segments {
					m := SegAttrs(seg)
					segPos := idx.SegPos(seg.ID)
					for local, v := range idx.Vars {
						attr, referenced := m[v]
						if got := info.RefdAt(segPos, int32(local)); got != referenced {
							t.Fatalf("%s seed %d region %s seg %d var %s: referenced dense=%v map=%v",
								prof.Name, seed, r.Name, seg.ID, v.Name, got, referenced)
						}
						if got := info.AttrAt(segPos, int32(local)); got != attr {
							t.Fatalf("%s seed %d region %s seg %d var %s: attr dense=%v map=%v",
								prof.Name, seed, r.Name, seg.ID, v.Name, got, attr)
						}
					}
				}
			}
		}
	}
}
