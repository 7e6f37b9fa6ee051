package deps

import (
	"slices"
	"testing"

	"refidem/internal/callgraph"
	"refidem/internal/cfg"
	"refidem/internal/gen"
	"refidem/internal/ir"
)

// TestAnalyzeWithNilMatchesAnalyze pins the degenerate cases: a nil and a
// zero-value ensemble must produce the exact solver's result unchanged.
func TestAnalyzeWithNilMatchesAnalyze(t *testing.T) {
	p := ir.NewProgram("t")
	av := p.AddVar("a", 16)
	a, r := loopRegion(t, p, 1, 8, 1,
		&ir.Assign{LHS: ir.Wr(av, ir.Idx("k")), RHS: ir.Rd(av, ir.SubE(ir.Idx("k"), ir.C(1)))})
	g := cfg.FromRegion(r)
	for _, ens := range []*Ensemble{nil, {}} {
		got := AnalyzeWith(r, g, ens)
		if !slices.Equal(got.All, a.All) || got.Spec != nil {
			t.Errorf("ens=%+v: got %v (overlay %v), want %v", ens, texts(got), got.Spec, texts(a))
		}
	}
}

// TestRangeMemberShortCircuit: constant-disjoint subscript ranges are
// refuted by the range member before the exact solver runs, while the
// write's self-pair falls through to it.
func TestRangeMemberShortCircuit(t *testing.T) {
	p := ir.NewProgram("t")
	av := p.AddVar("a", 256)
	exact, r := loopRegion(t, p, 1, 4, 1,
		&ir.Assign{LHS: ir.Wr(av, ir.Idx("k")), RHS: ir.Rd(av, ir.AddE(ir.Idx("k"), ir.C(100)))})
	got := AnalyzeWith(r, cfg.FromRegion(r), &Ensemble{Range: true})
	if len(got.All) != 0 || len(exact.All) != 0 {
		t.Fatalf("disjoint ranges: ensemble %v, exact %v, want both empty", texts(got), texts(exact))
	}
	wr, rd := refsByAccess(t, r)
	a, idx := &Analysis{Region: r}, r.DenseIndex()
	if !a.rangeRefutesPair(rd, wr, idx) {
		t.Error("range member did not refute a[k+100] against a[k]")
	}
	if a.rangeRefutesPair(wr, wr, idx) {
		t.Error("range member refuted the write's self-pair")
	}
}

// refsByAccess returns the single write and single read of a
// one-statement region.
func refsByAccess(t *testing.T, r *ir.Region) (wr, rd *ir.Ref) {
	t.Helper()
	for _, ref := range r.Refs {
		if ref.Access == ir.Write {
			wr = ref
		} else {
			rd = ref
		}
	}
	if wr == nil || rd == nil || len(r.Refs) != 2 {
		t.Fatalf("want one write and one read, got %v", r.Refs)
	}
	return wr, rd
}

// TestRangeMemberGCD: interleaved strides (a[2k] vs a[2k+1]) are refuted
// by the box GCD test even though their intervals overlap.
func TestRangeMemberGCD(t *testing.T) {
	p := ir.NewProgram("t")
	av := p.AddVar("a", 64)
	a, r := loopRegion(t, p, 0, 7, 1,
		&ir.Assign{
			LHS: ir.Wr(av, ir.MulE(ir.C(2), ir.Idx("k"))),
			RHS: ir.Rd(av, ir.AddE(ir.MulE(ir.C(2), ir.Idx("k")), ir.C(1))),
		})
	if len(a.All) != 0 {
		t.Fatalf("exact solver should refute interleaved strides, got %v", texts(a))
	}
	got := AnalyzeWith(r, cfg.FromRegion(r), &Ensemble{Range: true})
	if len(got.All) != 0 {
		t.Fatalf("range member should refute interleaved strides, got %v", texts(got))
	}
	wr, rd := refsByAccess(t, r)
	if !(&Analysis{Region: r}).rangeRefutesPair(rd, wr, r.DenseIndex()) {
		t.Error("range member did not refute a[2k+1] against a[2k]")
	}
}

// TestRangeMemberSlopBoundary pins the subtle bound: the exact
// cross-iteration test over-approximates the sink's loop value past the
// last iteration (here a[j+3] vs a[2j] "alias" only at the phantom
// iteration j=2 of a two-iteration loop), so the exact solver emits a
// dependence no real execution exhibits. The range member must widen its
// box the same way — refuting here would be cheaper, but it would change
// the emitted dependence set, and the short-circuit contract is exact
// equality.
func TestRangeMemberSlopBoundary(t *testing.T) {
	p := ir.NewProgram("t")
	av := p.AddVar("a", 8)
	a, r := loopRegion(t, p, 1, 1, 1,
		&ir.For{Index: "j", From: 0, To: 1, Step: 1, Body: []ir.Stmt{
			&ir.Assign{
				LHS: ir.Wr(av, ir.AddE(ir.Idx("j"), ir.C(3))),
				RHS: ir.AddE(ir.Rd(av, ir.MulE(ir.C(2), ir.Idx("j"))), ir.C(1)),
			},
		}})
	if len(a.All) != 1 || a.All[0].Kind != Flow || a.All[0].Cross {
		t.Fatalf("expected exactly the conservative intra flow dep, got %v", texts(a))
	}
	got := AnalyzeWith(r, cfg.FromRegion(r), &Ensemble{Range: true})
	if !slices.Equal(got.All, a.All) {
		t.Fatalf("range member diverged from exact on the slop boundary: got %v, want %v", texts(got), texts(a))
	}
}

// TestRangeMemberConsistencyRandom is the short-circuit soundness sweep:
// across generator profiles and seeds, the range-enabled ensemble must
// emit byte-identical dependence sets to the exact solver on every
// region.
func TestRangeMemberConsistencyRandom(t *testing.T) {
	seeds := int64(25)
	if testing.Short() {
		seeds = 5
	}
	for _, prof := range gen.Profiles() {
		for seed := int64(0); seed < seeds; seed++ {
			sc := gen.Generate(seed*31+7, prof.Cfg)
			if err := sc.Program.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", prof.Name, seed, err)
			}
			for _, r := range sc.Program.Regions {
				g := cfg.FromRegion(r)
				exact := Analyze(r, g)
				got := AnalyzeWith(r, g, &Ensemble{Range: true})
				if !slices.Equal(got.All, exact.All) {
					t.Fatalf("%s seed %d region %s: ensemble %v != exact %v",
						prof.Name, seed, r.Name, texts(got), texts(exact))
				}
			}
		}
	}
}

// TestMustWriteFirstLift: a segment whose unconditional leading call
// provably re-initializes a scalar gets its cross flow edges into reads
// of that scalar annotated as speculatively refuted — and nothing else
// changes.
func TestMustWriteFirstLift(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	p.AddProc("init", nil, []ir.Stmt{
		&ir.Assign{LHS: ir.Wr(x), RHS: ir.C(0)},
	})
	r := &ir.Region{
		Name: "r", Kind: ir.LoopRegion, Index: "k", From: 1, To: 4, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Call{Callee: "init"},
			&ir.Assign{LHS: ir.Wr(x), RHS: ir.AddE(ir.Rd(x), ir.C(1))},
		}}},
	}
	p.AddRegion(r)
	if err := p.ResolveCalls(); err != nil {
		t.Fatal(err)
	}
	r.Finalize()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	g := cfg.FromRegion(r)
	exact := Analyze(r, g)
	got := AnalyzeWith(r, g, &Ensemble{MustWriteFirst: true, Summaries: callgraph.Analyze(p)})
	if !slices.Equal(got.All, exact.All) {
		t.Fatalf("MWF changed the dep set: got %v, want %v", texts(got), texts(exact))
	}
	annotated, crossFlows := 0, 0
	for e, d := range got.All {
		isCrossFlowRead := d.Cross && d.Kind == Flow && r.Refs[d.Dst].Access == ir.Read
		if isCrossFlowRead {
			crossFlows++
		}
		if s := got.Spec[e]; s.Conf > 0 {
			annotated++
			if !isCrossFlowRead || s.By != MemberMustWriteFirst || s.Conf != mwfConf {
				t.Errorf("unexpected annotation on %s (conf %v by %v)", got.Text(d), s.Conf, s.By)
			}
		}
	}
	if crossFlows == 0 || annotated != crossFlows {
		t.Errorf("annotated %d of %d cross flow edges into reads of x", annotated, crossFlows)
	}
}

// TestMustWriteFirstArgReadExcluded: a variable read by the leading
// call's arguments must not be lifted even when the callee would
// re-initialize it.
func TestMustWriteFirstArgReadExcluded(t *testing.T) {
	build := func(argOf func(x *ir.Var) ir.Expr) (*ir.Region, *callgraph.Analysis) {
		p := ir.NewProgram("t")
		x := p.AddVar("x")
		p.AddProc("init", []string{"q"}, []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(x), RHS: ir.Idx("q")},
		})
		r := &ir.Region{
			Name: "r", Kind: ir.LoopRegion, Index: "k", From: 1, To: 4, Step: 1,
			Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
				&ir.Call{Callee: "init", Args: []ir.Expr{argOf(x)}},
				&ir.Assign{LHS: ir.Wr(x), RHS: ir.AddE(ir.Rd(x), ir.C(1))},
			}}},
		}
		p.AddRegion(r)
		if err := p.ResolveCalls(); err != nil {
			t.Fatal(err)
		}
		r.Finalize()
		return r, callgraph.Analyze(p)
	}
	// A constant argument: x is re-initialized before any read, lifted.
	r, cg := build(func(*ir.Var) ir.Expr { return ir.C(7) })
	if mwf := mustWriteFirstVars(r, cg); len(mwf) != 1 {
		t.Fatalf("constant arg: lifted vars = %v, want exactly x", mwf)
	}
	// An argument loading x: the call reads x's incoming value before the
	// re-initialization, so the lift would be wrong and must be excluded.
	r, cg = build(func(x *ir.Var) ir.Expr { return ir.Rd(x) })
	if mwf := mustWriteFirstVars(r, cg); mwf != nil {
		t.Errorf("x is loaded by the call arguments and must not be lifted, got %v", mwf)
	}
}

// TestProfileMemberAnnotates: two indirect references with disjoint
// observed address ranges get their dependences marked speculatively
// refuted at the rule-of-succession confidence; overlapping observations
// (the write against itself) stay unannotated.
func TestProfileMemberAnnotates(t *testing.T) {
	p := ir.NewProgram("t")
	av := p.AddVar("a", 64)
	ia := p.AddVar("ia", 8)
	ib := p.AddVar("ib", 8)
	a, r := loopRegion(t, p, 0, 3, 1,
		&ir.Assign{
			LHS: ir.Wr(av, ir.Rd(ia, ir.Idx("k"))),
			RHS: ir.AddE(ir.Rd(av, ir.Rd(ib, ir.Idx("k"))), ir.C(1)),
		})
	var aRead, aWrite *ir.Ref
	for _, ref := range r.Refs {
		if ref.Var != av {
			continue
		}
		if ref.Access == ir.Read {
			aRead = ref
		} else {
			aWrite = ref
		}
	}
	if aRead == nil || aWrite == nil {
		t.Fatal("refs not found")
	}
	obs := make([]RefObs, len(r.Refs))
	obs[aWrite.ID] = RefObs{Min: 0, Max: 3, Count: 4}
	obs[aRead.ID] = RefObs{Min: 10, Max: 13, Count: 4}
	prof := &Profile{Obs: map[*ir.Region][]RefObs{r: obs}}
	got := AnalyzeWith(r, cfg.FromRegion(r), &Ensemble{Profile: prof})
	if !slices.Equal(got.All, a.All) {
		t.Fatalf("profile member changed the dep set: got %v, want %v", texts(got), texts(a))
	}
	wantConf := 4.0 / 5.0
	rd, wr := int32(aRead.ID), int32(aWrite.ID)
	for e, d := range got.All {
		betweenPair := (d.Src == rd && d.Dst == wr) || (d.Src == wr && d.Dst == rd)
		switch s := got.Spec[e]; {
		case betweenPair && (s.Conf != wantConf || s.By != MemberProfile):
			t.Errorf("edge %s: conf %v by %v, want %v by profile", got.Text(d), s.Conf, s.By, wantConf)
		case !betweenPair && s.Conf != 0:
			t.Errorf("edge %s: unexpected annotation (conf %v)", got.Text(d), s.Conf)
		}
	}
}

// TestBreakCrossReads: the fault-injection mode forces high-
// confidence refutations onto every edge into a cross-segment read sink,
// and the sink index reaches them.
func TestBreakCrossReads(t *testing.T) {
	p := ir.NewProgram("t")
	av := p.AddVar("a", 64)
	ia := p.AddVar("ia", 8)
	_, r := loopRegion(t, p, 0, 3, 1,
		&ir.Assign{
			LHS: ir.Wr(av, ir.Rd(ia, ir.Idx("k"))),
			RHS: ir.AddE(ir.Rd(av, ir.Rd(ia, ir.AddE(ir.Idx("k"), ir.C(1)))), ir.C(1)),
		})
	got := AnalyzeWith(r, cfg.FromRegion(r), &Ensemble{BreakCrossReads: true})
	var victim *ir.Ref
	for _, d := range got.All {
		if d.Cross && r.Refs[d.Dst].Access == ir.Read {
			victim = r.Refs[d.Dst]
			break
		}
	}
	if victim == nil {
		t.Fatal("no cross read sink in test region")
	}
	for e, d := range got.All {
		s := got.Spec[e]
		if d.Dst == int32(victim.ID) && (s.Conf != 0.99 || s.By != MemberProfile) {
			t.Errorf("edge into victim not forced: %s (conf %v)", got.Text(d), s.Conf)
		}
		if d.Dst != int32(victim.ID) && s.Conf != 0 {
			t.Errorf("edge %s annotated but not into victim", got.Text(d))
		}
	}
	forced := 0
	for _, e := range got.SinksAt(victim) {
		if got.Spec[e].Conf != 0.99 {
			t.Errorf("sink index misses a forced edge: %s", got.Text(got.All[e]))
		}
		forced++
	}
	if forced == 0 {
		t.Error("victim has no sink-view edges")
	}
}
