package deps

import (
	"fmt"
	"slices"
	"testing"

	"refidem/internal/cfg"
	"refidem/internal/ir"
)

// loopRegion builds a single-template loop region over k with the given
// body and returns the analysis plus the region.
func loopRegion(t *testing.T, p *ir.Program, from, to, step int, body ...ir.Stmt) (*Analysis, *ir.Region) {
	t.Helper()
	r := &ir.Region{
		Name: "r", Kind: ir.LoopRegion, Index: "k", From: from, To: to, Step: step,
		Segments: []*ir.Segment{{ID: 0, Body: body}},
	}
	r.Finalize()
	p.AddRegion(r)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return Analyze(r, cfg.FromRegion(r)), r
}

// has reports whether a dependence src->dst with the kind/cross exists.
func has(a *Analysis, src, dst *ir.Ref, kind Kind, cross bool) bool {
	return slices.Contains(a.All, Dep{Src: int32(src.ID), Dst: int32(dst.ID), Kind: kind, Cross: cross})
}

// hasCross reports whether the region carries any cross-segment
// dependence.
func hasCross(a *Analysis) bool {
	return slices.ContainsFunc(a.All, func(d Dep) bool { return d.Cross })
}

// sourcesAt returns the dependences whose source is ref, in All's order.
func sourcesAt(a *Analysis, ref *ir.Ref) []Dep {
	var out []Dep
	for _, d := range a.All {
		if d.Src == int32(ref.ID) {
			out = append(out, d)
		}
	}
	return out
}

// texts renders every dependence of the analysis for failure messages.
func texts(a *Analysis) []string {
	out := make([]string, len(a.All))
	for e, d := range a.All {
		out[e] = a.Text(d)
	}
	return out
}

// TestUnvalidatedFormsAreConservative: a program that skipped Validate
// may nest a reference deeper than ir.MaxAffDepth or name an index no loop
// binds. Such subscripts have no affine form, so the solver assumes the
// dependences instead of indexing past the dense forms.
func TestUnvalidatedFormsAreConservative(t *testing.T) {
	p := ir.NewProgram("t")
	a := p.AddVar("a", 4)
	for _, c := range []struct {
		name  string
		depth int
		sub   string
	}{
		{"nest deeper than the cap", ir.MaxAffDepth + 1, "j0"},
		{"unbound index", 1, "z"},
	} {
		body := []ir.Stmt{&ir.Assign{LHS: ir.Wr(a, ir.Idx(c.sub)), RHS: ir.AddE(ir.Rd(a, ir.Idx(c.sub)), ir.C(1))}}
		for d := c.depth - 1; d >= 0; d-- {
			body = []ir.Stmt{&ir.For{Index: fmt.Sprintf("j%d", d), From: 0, To: 1, Step: 1, Body: body}}
		}
		r := &ir.Region{
			Name: "r", Kind: ir.LoopRegion, Index: "k", From: 0, To: 1, Step: 1,
			Segments: []*ir.Segment{{ID: 0, Body: body}},
		}
		r.Finalize()
		an := Analyze(r, cfg.FromRegion(r))
		rd, wr := r.Refs[0], r.Refs[1]
		if r.DenseIndex().AddrCertain[rd.ID] || r.DenseIndex().AddrCertain[wr.ID] {
			t.Errorf("%s: address certain without an affine form", c.name)
		}
		if !has(an, wr, rd, Flow, true) || !has(an, rd, wr, Anti, false) {
			t.Errorf("%s: dependences not assumed: %v", c.name, texts(an))
		}
	}
}

func TestScalarAccumulator(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	a, r := loopRegion(t, p, 1, 4, 1,
		&ir.Assign{LHS: ir.Wr(x), RHS: ir.AddE(ir.Rd(x), ir.C(1))})
	rd, wr := r.Refs[0], r.Refs[1]
	if rd.Access != ir.Read || wr.Access != ir.Write {
		t.Fatal("ref order unexpected")
	}
	want := []struct {
		src, dst *ir.Ref
		kind     Kind
		cross    bool
	}{
		{rd, wr, Anti, true},   // read in older iteration, write in younger
		{wr, rd, Flow, true},   // write feeds read of younger iteration
		{wr, wr, Output, true}, // write-write across iterations
		{rd, wr, Anti, false},  // textual read-before-write same iteration
	}
	for _, w := range want {
		if !has(a, w.src, w.dst, w.kind, w.cross) {
			t.Errorf("missing dep %v->%v %v cross=%v in %v", w.src, w.dst, w.kind, w.cross, texts(a))
		}
	}
	if len(a.All) != len(want) {
		t.Errorf("got %d deps, want %d: %v", len(a.All), len(want), texts(a))
	}
	if !a.IsCrossSink(wr) || !a.IsCrossSink(rd) {
		t.Error("both refs are cross-segment sinks")
	}
}

func TestIndependentStreaming(t *testing.T) {
	p := ir.NewProgram("t")
	av := p.AddVar("a", 16)
	bv := p.AddVar("b", 16)
	a, _ := loopRegion(t, p, 1, 8, 1,
		&ir.Assign{LHS: ir.Wr(av, ir.Idx("k")), RHS: ir.Rd(bv, ir.Idx("k"))})
	if len(a.All) != 0 {
		t.Errorf("a[k]=b[k] should be dependence-free, got %v", texts(a))
	}
	if hasCross(a) {
		t.Error("no cross dependence expected")
	}
}

func TestDistanceOneFlow(t *testing.T) {
	p := ir.NewProgram("t")
	av := p.AddVar("a", 16)
	a, r := loopRegion(t, p, 1, 8, 1,
		&ir.Assign{LHS: ir.Wr(av, ir.Idx("k")), RHS: ir.Rd(av, ir.SubE(ir.Idx("k"), ir.C(1)))})
	rd, wr := r.Refs[0], r.Refs[1]
	if !has(a, wr, rd, Flow, true) {
		t.Errorf("missing cross flow w->r: %v", texts(a))
	}
	if has(a, rd, wr, Anti, true) || has(a, rd, wr, Anti, false) {
		t.Errorf("spurious anti dep: %v", texts(a))
	}
	if has(a, wr, wr, Output, true) {
		t.Errorf("spurious output self dep: %v", texts(a))
	}
	if len(a.All) != 1 {
		t.Errorf("got %d deps, want 1: %v", len(a.All), texts(a))
	}
}

func TestDescendingLoopFlowDirection(t *testing.T) {
	// do k = 8 downto 1: a[k] = a[k+1]: iteration k reads the plane
	// written by iteration k+1, which executed EARLIER. So the write is
	// the (older) source.
	p := ir.NewProgram("t")
	av := p.AddVar("a", 16)
	a, r := loopRegion(t, p, 8, 1, -1,
		&ir.Assign{LHS: ir.Wr(av, ir.Idx("k")), RHS: ir.Rd(av, ir.AddE(ir.Idx("k"), ir.C(1)))})
	rd, wr := r.Refs[0], r.Refs[1]
	if !has(a, wr, rd, Flow, true) {
		t.Errorf("missing cross flow w->r on descending loop: %v", texts(a))
	}
	if len(a.All) != 1 {
		t.Errorf("got %v", texts(a))
	}
}

func TestAscendingLoopAntiDirection(t *testing.T) {
	// do k = 1 to 8: a[k] = a[k+1]: iteration k reads the plane that
	// iteration k+1 (younger) will write: anti dependence read->write.
	p := ir.NewProgram("t")
	av := p.AddVar("a", 16)
	a, r := loopRegion(t, p, 1, 8, 1,
		&ir.Assign{LHS: ir.Wr(av, ir.Idx("k")), RHS: ir.Rd(av, ir.AddE(ir.Idx("k"), ir.C(1)))})
	rd, wr := r.Refs[0], r.Refs[1]
	if !has(a, rd, wr, Anti, true) {
		t.Errorf("missing cross anti r->w on ascending loop: %v", texts(a))
	}
	if len(a.All) != 1 {
		t.Errorf("got %v", texts(a))
	}
}

func TestInnerLoopLevelDependence(t *testing.T) {
	// Region k; inner ascending j: v[j,k] = v[j+1,k]. Within one segment
	// the read at inner iteration j touches the cell written at j+1
	// (later): intra-segment anti dependence. No cross-segment deps
	// because the k subscripts match only at equal k.
	p := ir.NewProgram("t")
	v := p.AddVar("v", 10, 10)
	a, r := loopRegion(t, p, 1, 8, 1,
		&ir.For{Index: "j", From: 1, To: 8, Step: 1, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(v, ir.Idx("j"), ir.Idx("k")),
				RHS: ir.Rd(v, ir.AddE(ir.Idx("j"), ir.C(1)), ir.Idx("k"))},
		}})
	rd, wr := r.Refs[0], r.Refs[1]
	if !has(a, rd, wr, Anti, false) {
		t.Errorf("missing intra anti: %v", texts(a))
	}
	if hasCross(a) {
		t.Errorf("no cross deps expected: %v", texts(a))
	}
	if len(a.All) != 1 {
		t.Errorf("got %v", texts(a))
	}
}

func TestInnerLoopDescendingFlow(t *testing.T) {
	// Descending inner j: the write at j+1 executes before the read at
	// j reads cell j+1: intra flow w->r.
	p := ir.NewProgram("t")
	v := p.AddVar("v", 10, 10)
	a, r := loopRegion(t, p, 1, 8, 1,
		&ir.For{Index: "j", From: 8, To: 1, Step: -1, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(v, ir.Idx("j"), ir.Idx("k")),
				RHS: ir.Rd(v, ir.AddE(ir.Idx("j"), ir.C(1)), ir.Idx("k"))},
		}})
	rd, wr := r.Refs[0], r.Refs[1]
	if !has(a, wr, rd, Flow, false) {
		t.Errorf("missing intra flow on descending inner loop: %v", texts(a))
	}
	if len(a.All) != 1 {
		t.Errorf("got %v", texts(a))
	}
}

func TestReadModifyWriteSameCell(t *testing.T) {
	// a[k] = a[k] - 1: the only dependence is the textual intra-segment
	// anti (read executes before the write of the same cell).
	p := ir.NewProgram("t")
	av := p.AddVar("a", 16)
	a, r := loopRegion(t, p, 1, 8, 1,
		&ir.Assign{LHS: ir.Wr(av, ir.Idx("k")), RHS: ir.SubE(ir.Rd(av, ir.Idx("k")), ir.C(1))})
	rd, wr := r.Refs[0], r.Refs[1]
	if !has(a, rd, wr, Anti, false) {
		t.Errorf("missing intra anti: %v", texts(a))
	}
	if len(a.All) != 1 {
		t.Errorf("got %v", texts(a))
	}
}

func TestSubscriptedSubscriptConservative(t *testing.T) {
	// K[E[k]] = ... : the address is not analyzable, so the write
	// conservatively conflicts with itself across iterations.
	p := ir.NewProgram("t")
	kv := p.AddVar("K", 16)
	ev := p.AddVar("E", 16)
	a, r := loopRegion(t, p, 1, 8, 1,
		&ir.Assign{LHS: ir.Wr(kv, ir.Rd(ev, ir.Idx("k"))), RHS: ir.C(1)})
	var wr *ir.Ref
	for _, ref := range r.Refs {
		if ref.Var == kv {
			wr = ref
		}
	}
	if !has(a, wr, wr, Output, true) {
		t.Errorf("missing conservative output self-dep: %v", texts(a))
	}
}

func TestNoDepsBetweenExclusiveBranches(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	c := p.AddVar("c")
	segs := []*ir.Segment{
		{ID: 0, Name: "head", Succs: []int{1, 2}, Branch: ir.Rd(c)},
		{ID: 1, Name: "left", Succs: []int{3}, Body: []ir.Stmt{&ir.Assign{LHS: ir.Wr(x), RHS: ir.C(1)}}},
		{ID: 2, Name: "right", Succs: []int{3}, Body: []ir.Stmt{&ir.Assign{LHS: ir.Wr(x), RHS: ir.C(2)}}},
		{ID: 3, Name: "join", Body: []ir.Stmt{&ir.Assign{LHS: ir.Wr(c), RHS: ir.Rd(x)}}},
	}
	r := &ir.Region{Name: "r", Kind: ir.CFGRegion, Segments: segs}
	r.Finalize()
	p.AddRegion(r)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	a := Analyze(r, cfg.FromRegion(r))
	var w1, w2, rd *ir.Ref
	for _, ref := range r.Refs {
		if ref.Var == x {
			switch {
			case ref.SegID == 1:
				w1 = ref
			case ref.SegID == 2:
				w2 = ref
			case ref.Access == ir.Read:
				rd = ref
			}
		}
	}
	if has(a, w1, w2, Output, true) || has(a, w2, w1, Output, true) {
		t.Errorf("exclusive branches must not depend on each other: %v", texts(a))
	}
	if !has(a, w1, rd, Flow, true) || !has(a, w2, rd, Flow, true) {
		t.Errorf("join read depends on both writes: %v", texts(a))
	}
}

func TestCFGDirectionByAge(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	segs := []*ir.Segment{
		{ID: 0, Name: "a", Succs: []int{1}, Body: []ir.Stmt{&ir.Assign{LHS: ir.Wr(p.AddVar("y")), RHS: ir.Rd(x)}}},
		{ID: 1, Name: "b", Body: []ir.Stmt{&ir.Assign{LHS: ir.Wr(x), RHS: ir.C(1)}}},
	}
	r := &ir.Region{Name: "r", Kind: ir.CFGRegion, Segments: segs}
	r.Finalize()
	p.AddRegion(r)
	a := Analyze(r, cfg.FromRegion(r))
	var rd, wr *ir.Ref
	for _, ref := range r.Refs {
		if ref.Var == x {
			if ref.Access == ir.Read {
				rd = ref
			} else {
				wr = ref
			}
		}
	}
	if !has(a, rd, wr, Anti, true) {
		t.Errorf("missing anti old->young: %v", texts(a))
	}
	if has(a, wr, rd, Flow, true) {
		t.Errorf("flow young->old is impossible in a DAG: %v", texts(a))
	}
}

func TestSingleIterationRegionHasNoCrossDeps(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	a, _ := loopRegion(t, p, 1, 1, 1,
		&ir.Assign{LHS: ir.Wr(x), RHS: ir.AddE(ir.Rd(x), ir.C(1))})
	if hasCross(a) {
		t.Errorf("one iteration cannot have cross-segment deps: %v", texts(a))
	}
}

func TestSourcesAndSinksIndex(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	a, r := loopRegion(t, p, 1, 4, 1,
		&ir.Assign{LHS: ir.Wr(x), RHS: ir.AddE(ir.Rd(x), ir.C(1))})
	rd, wr := r.Refs[0], r.Refs[1]
	if len(a.SinksAt(wr)) == 0 || len(sourcesAt(a, wr)) == 0 {
		t.Error("write should be both source and sink here")
	}
	if len(a.SinksAt(rd)) == 0 {
		t.Error("read is a flow sink")
	}
	// The sink index lists, per reference, exactly the edges into it in
	// All's order.
	for _, ref := range r.Refs {
		var want []int32
		for e, d := range a.All {
			if d.Dst == int32(ref.ID) {
				want = append(want, int32(e))
			}
		}
		if got := a.SinksAt(ref); !slices.Equal(got, want) {
			t.Errorf("SinksAt(%v) = %v, want %v", ref, got, want)
		}
	}
}

func TestMayZero(t *testing.T) {
	b := map[string][2]int64{"x": {0, 10}, "y": {0, 10}}
	// x - y == 0 is satisfiable.
	if !mayZero(linExpr{terms: map[string]int64{"x": 1, "y": -1}}, b) {
		t.Error("x-y=0 should be satisfiable")
	}
	// x - y + 100 is not (interval).
	if mayZero(linExpr{c: 100, terms: map[string]int64{"x": 1, "y": -1}}, b) {
		t.Error("interval test failed")
	}
	// 2x - 2y + 1 = 0 is not (gcd).
	if mayZero(linExpr{c: 1, terms: map[string]int64{"x": 2, "y": -2}}, b) {
		t.Error("gcd test failed")
	}
	// Constant zero.
	if !mayZero(linExpr{}, b) {
		t.Error("0=0 should be satisfiable")
	}
	if mayZero(linExpr{c: 5}, b) {
		t.Error("5=0 should be refuted")
	}
}

func TestKindString(t *testing.T) {
	if Flow.String() != "flow" || Anti.String() != "anti" || Output.String() != "output" {
		t.Error("Kind.String broken")
	}
}

func TestDepString(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	_, r := loopRegion(t, p, 1, 4, 1,
		&ir.Assign{LHS: ir.Wr(x), RHS: ir.AddE(ir.Rd(x), ir.C(1))})
	a := &Analysis{Region: r}
	d := Dep{Src: 0, Dst: 1, Kind: Anti, Cross: true}
	if got, want := a.Text(d), "cross anti: read x@S0#0 -> write x@S0#1"; got != want {
		t.Errorf("Text = %q, want %q", got, want)
	}
}
