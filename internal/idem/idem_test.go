package idem

import (
	"fmt"
	"strings"
	"testing"

	"refidem/internal/deps"
	"refidem/internal/ir"
	"refidem/internal/workloads"
)

// refBy finds the unique reference to the named variable with the given
// access in the given segment, failing the test when ambiguous; pos
// selects among several (0 = first in textual order).
func refBy(t *testing.T, r *ir.Region, name string, acc ir.AccessType, segID, pos int) *ir.Ref {
	t.Helper()
	var found []*ir.Ref
	for _, ref := range r.Refs {
		if ref.Var.Name == name && ref.Access == acc && ref.SegID == segID {
			found = append(found, ref)
		}
	}
	if pos >= len(found) {
		t.Fatalf("no ref #%d to %s (%v) in segment %d; have %d", pos, name, acc, segID, len(found))
	}
	return found[pos]
}

func TestIntroExampleLabels(t *testing.T) {
	p := workloads.IntroExample()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	res := LabelRegion(p, p.Regions[0], nil)
	r := p.Regions[0]

	// B is read-only: both reads idempotent.
	for _, ref := range r.VarRefs(p.Var("B")) {
		if res.Label(ref) != Idempotent || res.Category(ref) != CatReadOnly {
			t.Errorf("B ref %v: %v/%v, want idempotent/read-only", ref, res.Label(ref), res.Category(ref))
		}
	}
	// The first write to A (segment 1) is idempotent; the read of A in
	// segment 2 is the cross-segment flow sink and stays speculative.
	aw := refBy(t, r, "A", ir.Write, 0, 0)
	if res.Label(aw) != Idempotent || res.Category(aw) != CatSharedDependent {
		t.Errorf("A write: %v/%v, want idempotent/shared-dependent", res.Label(aw), res.Category(aw))
	}
	ar := refBy(t, r, "A", ir.Read, 1, 0)
	if res.Label(ar) != Speculative {
		t.Errorf("A read in segment 2 must be speculative, got %v", res.Label(ar))
	}
	// C is private to segment 2: all refs idempotent.
	for _, ref := range r.VarRefs(p.Var("C")) {
		if res.Label(ref) != Idempotent || res.Category(ref) != CatPrivate {
			t.Errorf("C ref %v: %v/%v, want idempotent/private", ref, res.Label(ref), res.Category(ref))
		}
	}
	if res.FullyIndependent {
		t.Error("intro region has a cross-segment dependence")
	}
	if errs := res.CheckTheorems(); len(errs) > 0 {
		t.Errorf("theorem check: %v", errs)
	}
}

func TestFigure2Labels(t *testing.T) {
	p := workloads.Figure2()
	res := LabelRegion(p, p.Regions[0], nil)
	r := p.Regions[0]

	type want struct {
		name  string
		acc   ir.AccessType
		seg   int
		pos   int
		label Label
		cat   Category
	}
	cases := []want{
		// Read-only G.
		{"G", ir.Read, 0, 0, Idempotent, CatReadOnly},
		{"G", ir.Read, 1, 0, Idempotent, CatReadOnly},
		{"G", ir.Read, 4, 0, Idempotent, CatReadOnly},
		// R0: C, N writes and covered reads idempotent.
		{"C", ir.Write, 0, 0, Idempotent, CatSharedDependent},
		{"C", ir.Read, 0, 0, Idempotent, CatSharedDependent},
		{"N", ir.Write, 0, 0, Idempotent, CatSharedDependent},
		{"N", ir.Read, 0, 0, Idempotent, CatSharedDependent},
		// J: R0 write idempotent, R1 write speculative (output sink).
		{"J", ir.Write, 0, 0, Idempotent, CatSharedDependent},
		{"J", ir.Write, 1, 0, Speculative, CatSpeculative},
		// E: write idempotent; reads in R2/R3 are cross flow sinks.
		{"E", ir.Write, 1, 0, Idempotent, CatSharedDependent},
		{"E", ir.Read, 2, 0, Speculative, CatSpeculative},
		{"E", ir.Read, 3, 0, Speculative, CatSpeculative},
		// A: both branch writes idempotent, covered reads idempotent.
		{"A", ir.Write, 2, 0, Idempotent, CatSharedDependent},
		{"A", ir.Write, 3, 0, Idempotent, CatSharedDependent},
		{"A", ir.Read, 2, 0, Idempotent, CatSharedDependent},
		{"A", ir.Read, 3, 0, Idempotent, CatSharedDependent},
		// B: conditional / not-on-all-paths writes stay speculative.
		{"B", ir.Write, 2, 0, Speculative, CatSpeculative},
		{"B", ir.Write, 3, 0, Speculative, CatSpeculative},
		// K(E): uncertain addresses stay speculative.
		{"K", ir.Write, 2, 0, Speculative, CatSpeculative},
		{"K", ir.Write, 3, 0, Speculative, CatSpeculative},
		// N read in R2: cross flow sink.
		{"N", ir.Read, 2, 0, Speculative, CatSpeculative},
		// F: read in R0 independent (idempotent); write in R4 is RFW but
		// an anti sink (speculative); the covered read in R4 follows a
		// speculative write so it stays speculative too (Theorem 2; the
		// paper's prose lists it under Lemma 6 — see DESIGN.md).
		{"F", ir.Read, 0, 0, Idempotent, CatSharedDependent},
		{"F", ir.Write, 4, 0, Speculative, CatSpeculative},
		{"F", ir.Read, 4, 0, Speculative, CatSpeculative},
		// H: read independent (idempotent by Lemma 4), write not RFW.
		{"H", ir.Read, 4, 0, Idempotent, CatSharedDependent},
		{"H", ir.Write, 4, 0, Speculative, CatSpeculative},
	}
	for _, c := range cases {
		ref := refBy(t, r, c.name, c.acc, c.seg, c.pos)
		if res.Label(ref) != c.label || res.Category(ref) != c.cat {
			t.Errorf("%s %v in R%d: got %v/%v, want %v/%v",
				c.name, c.acc, c.seg, res.Label(ref), res.Category(ref), c.label, c.cat)
		}
	}
	// Scratch temporaries are private.
	for _, name := range []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"} {
		for _, ref := range r.VarRefs(p.Var(name)) {
			if res.Category(ref) != CatPrivate {
				t.Errorf("%s should be private, got %v", name, res.Category(ref))
			}
		}
	}
	if errs := res.CheckTheorems(); len(errs) > 0 {
		t.Errorf("theorem check: %v", errs)
	}
}

func TestButsLabels(t *testing.T) {
	p := workloads.ButsDO1(6)
	res := LabelRegion(p, p.Regions[0], nil)
	r := p.Regions[0]
	v := p.Var("v")
	tv := p.Var("t")

	for _, ref := range r.Refs {
		switch {
		case ref.Var == tv:
			if res.Label(ref) != Idempotent || res.Category(ref) != CatPrivate {
				t.Errorf("t ref %v: %v/%v, want idempotent/private", ref, res.Label(ref), res.Category(ref))
			}
		case ref.Var == v && ref.Access == ir.Write:
			if res.Label(ref) != Speculative {
				t.Errorf("S2 write %v must stay speculative", ref)
			}
		case ref.Var == v && ref.Access == ir.Read:
			// The three S1 gather reads are idempotent (sources of anti
			// dependences only); so is the S2 read-modify-write read
			// (not a sink of anything).
			if res.Label(ref) != Idempotent {
				t.Errorf("v read %v should be idempotent", ref)
			}
		}
	}
	if res.FullyIndependent {
		t.Error("BUTS carries cross-iteration dependences")
	}
	if errs := res.CheckTheorems(); len(errs) > 0 {
		t.Errorf("theorem check: %v", errs)
	}
	// The paper's headline for this loop: a majority of references are
	// idempotent.
	frac, _ := res.IdempotentFraction()
	if frac < 0.6 {
		t.Errorf("BUTS idempotent fraction = %.2f, want > 0.6", frac)
	}
}

func TestFullyIndependentRegion(t *testing.T) {
	p := ir.NewProgram("t")
	a := p.AddVar("a", 16)
	b := p.AddVar("b", 16)
	r := &ir.Region{Name: "r", Kind: ir.LoopRegion, Index: "k", From: 0, To: 7, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(a, ir.Idx("k")), RHS: ir.AddE(ir.Rd(b, ir.Idx("k")), ir.C(1))},
		}}}}
	r.Ann.LiveOut = map[string]bool{"a": true}
	r.Finalize()
	p.AddRegion(r)
	res := LabelRegion(p, r, nil)
	if !res.FullyIndependent {
		t.Fatal("region should be fully independent")
	}
	for _, ref := range r.Refs {
		if res.Label(ref) != Idempotent {
			t.Errorf("ref %v should be idempotent in a fully independent region", ref)
		}
	}
	// Category breakdown: b is read-only, a is shared (fully-independent).
	for _, ref := range r.VarRefs(b) {
		if res.Category(ref) != CatReadOnly {
			t.Errorf("b ref: %v, want read-only", res.Category(ref))
		}
	}
	for _, ref := range r.VarRefs(a) {
		if res.Category(ref) != CatFullyIndependent {
			t.Errorf("a ref: %v, want fully-independent", res.Category(ref))
		}
	}
	if errs := res.CheckTheorems(); len(errs) > 0 {
		t.Errorf("theorem check: %v", errs)
	}
}

func TestPrivateDepsDoNotBlockFullIndependence(t *testing.T) {
	// The scalar temporary carries cross-segment anti/output dependences
	// address-wise, but privatization removes them.
	p := ir.NewProgram("t")
	a := p.AddVar("a", 16)
	b := p.AddVar("b", 16)
	tv := p.AddVar("tv")
	r := &ir.Region{Name: "r", Kind: ir.LoopRegion, Index: "k", From: 0, To: 7, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(tv), RHS: ir.Rd(b, ir.Idx("k"))},
			&ir.Assign{LHS: ir.Wr(a, ir.Idx("k")), RHS: ir.Rd(tv)},
		}}}}
	r.Ann.LiveOut = map[string]bool{"a": true}
	r.Finalize()
	p.AddRegion(r)
	res := LabelRegion(p, r, nil)
	if !res.FullyIndependent {
		t.Error("private temporary should not block full independence")
	}
	for _, ref := range r.VarRefs(tv) {
		if res.Category(ref) != CatPrivate {
			t.Errorf("tv should be private, got %v", res.Category(ref))
		}
	}
}

func TestEarlyExitBlocksFullIndependence(t *testing.T) {
	p := ir.NewProgram("t")
	a := p.AddVar("a", 16)
	r := &ir.Region{Name: "r", Kind: ir.LoopRegion, Index: "k", From: 0, To: 7, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(a, ir.Idx("k")), RHS: ir.C(1)},
			&ir.ExitRegion{Cond: ir.Rd(a, ir.Idx("k"))},
		}}}}
	r.Finalize()
	p.AddRegion(r)
	res := LabelRegion(p, r, nil)
	if res.FullyIndependent {
		t.Error("early exit is a cross-segment control dependence")
	}
}

func TestIdempotentFraction(t *testing.T) {
	p := workloads.IntroExample()
	res := LabelRegion(p, p.Regions[0], nil)
	frac, byCat := res.IdempotentFraction()
	if frac <= 0 || frac > 1 {
		t.Errorf("fraction = %v", frac)
	}
	var sum float64
	for _, f := range byCat {
		sum += f
	}
	if diff := frac - sum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("category fractions sum to %v, total %v", sum, frac)
	}
}

func TestLabelProgramMultiRegionLiveness(t *testing.T) {
	// Region 1 writes x each iteration; region 2 reads x. The write in
	// region 1 is an output-dep sink across iterations, so it stays
	// speculative; x's liveness comes from region 2.
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	out := p.AddVar("out", 8)
	r1 := &ir.Region{Name: "r1", Kind: ir.LoopRegion, Index: "k", From: 0, To: 7, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(x), RHS: ir.Idx("k")},
		}}}}
	r1.Finalize()
	p.AddRegion(r1)
	r2 := &ir.Region{Name: "r2", Kind: ir.LoopRegion, Index: "k", From: 0, To: 7, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(out, ir.Idx("k")), RHS: ir.Rd(x)},
		}}}}
	r2.Ann.LiveOut = map[string]bool{"out": true}
	r2.Finalize()
	p.AddRegion(r2)

	results := LabelProgram(p)
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	res1 := results[r1]
	wx := r1.Refs[0]
	if res1.Label(wx) != Speculative {
		t.Errorf("x write is an output sink and x is live into region 2: must be speculative, got %v", res1.Label(wx))
	}
	// In region 2 x is read-only.
	res2 := results[r2]
	for _, ref := range r2.VarRefs(x) {
		if res2.Category(ref) != CatReadOnly {
			t.Errorf("x in r2: %v, want read-only", res2.Category(ref))
		}
	}
	for _, res := range results {
		if errs := res.CheckTheorems(); len(errs) > 0 {
			t.Errorf("theorem check: %v", errs)
		}
	}
}

func TestStringers(t *testing.T) {
	if Speculative.String() != "speculative" || Idempotent.String() != "idempotent" {
		t.Error("Label.String broken")
	}
	if CatReadOnly.String() != "read-only" || CatPrivate.String() != "private" ||
		CatSharedDependent.String() != "shared-dependent" || CatFullyIndependent.String() != "fully-independent" ||
		CatSpeculative.String() != "speculative" {
		t.Error("Category.String broken")
	}
}

// TestLabelProgramPanicsOnRecursion: a recursive program, which only a
// builder can construct and Validate rejects, makes every whole-program
// entry point panic with a message naming Validate instead of labeling
// a region whose reference set is incomplete.
func TestLabelProgramPanicsOnRecursion(t *testing.T) {
	p := ir.NewProgram("rec")
	s := p.AddVar("s")
	f := p.AddProc("f", []string{"x"}, nil)
	f.Body = []ir.Stmt{
		&ir.Assign{LHS: ir.Wr(s), RHS: ir.C(1)},
		&ir.Call{Callee: "f", Args: []ir.Expr{ir.Idx("x")}},
	}
	r := &ir.Region{
		Name: "r", Kind: ir.LoopRegion, Index: "i", From: 0, To: 3, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Call{Callee: "f", Args: []ir.Expr{ir.Idx("i")}},
		}}},
	}
	p.AddRegion(r)
	if err := p.ResolveCalls(); err != nil {
		t.Fatal(err)
	}
	r.Finalize()
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted a recursive program")
	}
	for name, label := range map[string]func(){
		"LabelProgram":             func() { LabelProgram(p) },
		"LabelProgramConservative": func() { LabelProgramConservative(p) },
		"LabelProgramEnsemble":     func() { LabelProgramEnsemble(p, deps.Ensemble{Range: true}) },
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "Validate") || !strings.Contains(msg, "f -> f") {
					t.Errorf("%s: panic %q, want one naming Validate and the cycle", name, msg)
				}
			}()
			label()
		}()
	}
}
