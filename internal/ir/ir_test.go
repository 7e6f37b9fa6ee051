package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestVarSizeAndKind(t *testing.T) {
	p := NewProgram("t")
	s := p.AddVar("s")
	a := p.AddVar("a", 4, 5)
	if !s.IsScalar() || s.Size() != 1 {
		t.Errorf("scalar: IsScalar=%v Size=%d", s.IsScalar(), s.Size())
	}
	if a.IsScalar() || a.Size() != 20 {
		t.Errorf("array: IsScalar=%v Size=%d", a.IsScalar(), a.Size())
	}
	if p.Var("a") != a || p.Var("nope") != nil {
		t.Error("Var lookup broken")
	}
}

func TestAddVarPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate variable")
		}
	}()
	p := NewProgram("t")
	p.AddVar("x")
	p.AddVar("x")
}

func TestAddVarPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive dimension")
		}
	}()
	p := NewProgram("t")
	p.AddVar("x", 0)
}

func TestLoopInfoTrips(t *testing.T) {
	cases := []struct {
		from, to, step, want int
	}{
		{1, 10, 1, 10},
		{10, 1, -1, 10},
		{1, 10, 2, 5},
		{1, 9, 2, 5},
		{5, 5, 1, 1},
		{5, 4, 1, 0},
		{4, 5, -1, 0},
		{0, 10, 3, 4},
		{1, 1, -1, 1},
		{3, 3, 0, 0},
	}
	for _, c := range cases {
		got := LoopInfo{From: c.from, To: c.to, Step: c.step}.Trips()
		if got != c.want {
			t.Errorf("Trips(%d,%d,%d) = %d, want %d", c.from, c.to, c.step, got, c.want)
		}
	}
}

func TestIndexValues(t *testing.T) {
	r := &Region{Kind: LoopRegion, Index: "k", From: 5, To: 1, Step: -2}
	got := r.IndexValues()
	want := []int64{5, 3, 1}
	if len(got) != len(want) {
		t.Fatalf("IndexValues = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IndexValues = %v, want %v", got, want)
		}
	}
	if (&Region{Kind: CFGRegion}).IndexValues() != nil {
		t.Error("CFG region should have no index values")
	}
}

// makeLoopRegion builds the region:
//
//	region r loop k = 1 to 4 {
//	  t = b[k] + b[k+1]
//	  if t > 0 { a[k] = t }
//	  for j = 1 to 3 { c[j,k] = a[k] * j }
//	}
func makeLoopRegion(t *testing.T) (*Program, *Region) {
	t.Helper()
	p := NewProgram("t")
	a := p.AddVar("a", 8)
	b := p.AddVar("b", 8)
	c := p.AddVar("c", 4, 8)
	tv := p.AddVar("t")
	body := []Stmt{
		&Assign{LHS: Wr(tv), RHS: AddE(Rd(b, Idx("k")), Rd(b, AddE(Idx("k"), C(1))))},
		&If{Cond: Op(Gt, Rd(tv), C(0)), Then: []Stmt{
			&Assign{LHS: Wr(a, Idx("k")), RHS: Rd(tv)},
		}},
		&For{Index: "j", From: 1, To: 3, Step: 1, Body: []Stmt{
			&Assign{LHS: Wr(c, Idx("j"), Idx("k")), RHS: MulE(Rd(a, Idx("k")), Idx("j"))},
		}},
	}
	r := &Region{
		Name: "r", Kind: LoopRegion, Index: "k", From: 1, To: 4, Step: 1,
		Segments: []*Segment{{ID: 0, Name: "body", Body: body}},
	}
	r.Finalize()
	p.AddRegion(r)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return p, r
}

func TestFinalizeNumbersRefsInTextualOrder(t *testing.T) {
	_, r := makeLoopRegion(t)
	// Expected reference order: read b[k], read b[k+1], write t, read t
	// (cond), read t, write a[k], read a[k], write c[j,k].
	wantVars := []string{"b", "b", "t", "t", "t", "a", "a", "c"}
	wantAcc := []AccessType{Read, Read, Write, Read, Read, Write, Read, Write}
	if len(r.Refs) != len(wantVars) {
		t.Fatalf("got %d refs, want %d: %v", len(r.Refs), len(wantVars), r.Refs)
	}
	for i, ref := range r.Refs {
		if ref.Var.Name != wantVars[i] || ref.Access != wantAcc[i] {
			t.Errorf("ref %d = %s %s, want %s %s", i, ref.Access, ref.Var.Name, wantAcc[i], wantVars[i])
		}
		if ref.ID != i || ref.Pos != i {
			t.Errorf("ref %d has ID=%d Pos=%d", i, ref.ID, ref.Pos)
		}
	}
}

func TestFinalizeContexts(t *testing.T) {
	_, r := makeLoopRegion(t)
	// The a[k] write (index 5) is conditional; the c write (index 7) is
	// inside inner loop j.
	if !r.Refs[4].Ctx.Conditional || !r.Refs[5].Ctx.Conditional {
		t.Error("refs inside if should be conditional")
	}
	if r.Refs[0].Ctx.Conditional {
		t.Error("top-level ref should not be conditional")
	}
	w := r.Refs[7]
	if len(w.Ctx.Loops) != 1 || w.Ctx.Loops[0].Index != "j" {
		t.Errorf("c write loop context = %+v", w.Ctx.Loops)
	}
	if len(r.Refs[0].Ctx.Loops) != 0 {
		t.Error("top-level ref should have no loop context")
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	_, r := makeLoopRegion(t)
	ids := make([]int, len(r.Refs))
	for i, ref := range r.Refs {
		ids[i] = ref.ID
	}
	r.Finalize()
	if len(r.Refs) != len(ids) {
		t.Fatalf("second Finalize changed ref count: %d vs %d", len(r.Refs), len(ids))
	}
	for i, ref := range r.Refs {
		if ref.ID != ids[i] {
			t.Errorf("ref %d changed ID after re-Finalize", i)
		}
	}
}

func TestSegRefsAndVarRefs(t *testing.T) {
	p, r := makeLoopRegion(t)
	if n := len(r.SegRefs(0)); n != 8 {
		t.Errorf("SegRefs(0) = %d refs, want 8", n)
	}
	if n := len(r.VarRefs(p.Var("b"))); n != 2 {
		t.Errorf("VarRefs(b) = %d, want 2", n)
	}
	if n := len(r.VarRefs(p.Var("t"))); n != 3 {
		t.Errorf("VarRefs(t) = %d, want 3", n)
	}
	vars := r.RegionVars()
	if len(vars) != 4 {
		t.Errorf("RegionVars = %v, want 4 vars", vars)
	}
}

func TestHasEarlyExit(t *testing.T) {
	_, r := makeLoopRegion(t)
	if r.HasEarlyExit() {
		t.Error("region without exit reported early exit")
	}
	r.Segments[0].Body = append(r.Segments[0].Body, &ExitRegion{Cond: C(0)})
	r.Finalize()
	if !r.HasEarlyExit() {
		t.Error("region with exit not reported")
	}
}

func TestValidateCatchesCFGErrors(t *testing.T) {
	p := NewProgram("t")
	x := p.AddVar("x")
	mk := func(segs []*Segment) *Region {
		r := &Region{Name: "r", Kind: CFGRegion, Segments: segs}
		r.Finalize()
		return r
	}
	// Edge violating age order.
	bad := NewProgram("bad")
	y := bad.AddVar("y")
	r := mk([]*Segment{
		{ID: 0, Name: "a", Succs: []int{1}},
		{ID: 1, Name: "b", Succs: []int{0}, Body: []Stmt{&Assign{LHS: Wr(y), RHS: C(1)}}},
	})
	bad.AddRegion(r)
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "age order") {
		t.Errorf("cycle not rejected: %v", err)
	}
	// Branch with one successor.
	p2 := NewProgram("p2")
	z := p2.AddVar("z")
	r2 := mk([]*Segment{
		{ID: 0, Name: "a", Succs: []int{1}, Branch: C(1)},
		{ID: 1, Name: "b", Body: []Stmt{&Assign{LHS: Wr(z), RHS: C(1)}}},
	})
	p2.AddRegion(r2)
	if err := p2.Validate(); err == nil {
		t.Error("branch arity not rejected")
	}
	_ = x
}

func TestValidateCatchesSubscriptArity(t *testing.T) {
	p := NewProgram("t")
	a := p.AddVar("a", 4, 4)
	r := &Region{
		Name: "r", Kind: LoopRegion, Index: "k", From: 1, To: 2, Step: 1,
		Segments: []*Segment{{ID: 0, Body: []Stmt{
			&Assign{LHS: Wr(a, Idx("k")), RHS: C(0)}, // one subscript for 2-D array
		}}},
	}
	r.Finalize()
	p.AddRegion(r)
	if err := p.Validate(); err == nil {
		t.Error("subscript arity mismatch not rejected")
	}
}

func TestValidateCatchesUnknownIndex(t *testing.T) {
	p := NewProgram("t")
	a := p.AddVar("a", 4)
	r := &Region{
		Name: "r", Kind: LoopRegion, Index: "k", From: 1, To: 2, Step: 1,
		Segments: []*Segment{{ID: 0, Body: []Stmt{
			&Assign{LHS: Wr(a, Idx("nope")), RHS: C(0)},
		}}},
	}
	r.Finalize()
	p.AddRegion(r)
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown index not rejected: %v", err)
	}
}

func TestBinOpApply(t *testing.T) {
	cases := []struct {
		op   BinOp
		a, b int64
		want int64
	}{
		{Add, 3, 4, 7}, {Sub, 3, 4, -1}, {Mul, 3, 4, 12},
		{Div, 12, 4, 3}, {Div, 7, 0, 0}, {Div, -7, 2, -3},
		{Mod, 7, 3, 1}, {Mod, 7, 0, 0},
		{Lt, 1, 2, 1}, {Lt, 2, 1, 0},
		{Le, 2, 2, 1}, {Gt, 3, 2, 1}, {Ge, 2, 3, 0},
		{Eq, 5, 5, 1}, {Ne, 5, 5, 0},
		{And, 1, 0, 0}, {And, 2, 3, 1},
		{Or, 0, 0, 0}, {Or, 0, 9, 1},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.a, c.b); got != c.want {
			t.Errorf("%v.Apply(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestAffineOf(t *testing.T) {
	// 2*k + j - 3
	e := SubE(AddE(MulE(C(2), Idx("k")), Idx("j")), C(3))
	a, ok := AffineOf(e)
	if !ok {
		t.Fatal("expected affine")
	}
	if a.Const != -3 || a.Coefficient("k") != 2 || a.Coefficient("j") != 1 {
		t.Errorf("affine = %+v", a)
	}
	// k*k is not affine.
	if _, ok := AffineOf(MulE(Idx("k"), Idx("k"))); ok {
		t.Error("k*k should not be affine")
	}
	// Loads are not affine.
	p := NewProgram("t")
	v := p.AddVar("v", 4)
	if _, ok := AffineOf(Rd(v, C(0))); ok {
		t.Error("load should not be affine")
	}
	// Coefficients that cancel disappear.
	a2, ok := AffineOf(SubE(Idx("k"), Idx("k")))
	if !ok || a2.Coefficient("k") != 0 || a2.Const != 0 {
		t.Errorf("k-k = %+v ok=%v", a2, ok)
	}
}

func TestAddrCertain(t *testing.T) {
	p := NewProgram("t")
	v := p.AddVar("v", 8)
	e := p.AddVar("e", 8)
	if !AddrCertain(Wr(v, AddE(Idx("k"), C(1)))) {
		t.Error("affine subscript should be certain")
	}
	// v[e[k]] — subscripted subscript, like K(E) in the paper.
	if AddrCertain(Wr(v, Rd(e, Idx("k")))) {
		t.Error("subscripted subscript should be uncertain")
	}
	if !AddrCertain(Wr(p.AddVar("s"))) {
		t.Error("scalar should be certain")
	}
}

func TestExprRefsOrder(t *testing.T) {
	p := NewProgram("t")
	a := p.AddVar("a", 4)
	b := p.AddVar("b")
	// a[b] + b: reads are b (subscript), a[b], b.
	e := AddE(Rd(a, Rd(b)), Rd(b))
	refs := ExprRefs(e)
	if len(refs) != 3 {
		t.Fatalf("got %d refs", len(refs))
	}
	if refs[0].Var.Name != "b" || refs[1].Var.Name != "a" || refs[2].Var.Name != "b" {
		t.Errorf("order = %v", refs)
	}
}

func TestAffineAddScaleProperties(t *testing.T) {
	// Affine decomposition of c1*k + c2 round-trips the coefficients.
	f := func(c1, c2 int16) bool {
		e := AddE(MulE(C(int64(c1)), Idx("k")), C(int64(c2)))
		a, ok := AffineOf(e)
		return ok && a.Coefficient("k") == int64(c1) && a.Const == int64(c2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatRoundTripShape(t *testing.T) {
	p, _ := makeLoopRegion(t)
	s := p.Format()
	for _, want := range []string{"program t", "var a[8]", "var c[4,8]", "region r loop k = 1 to 4", "for j = 1 to 3", "if (t > 0)"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format missing %q in:\n%s", want, s)
		}
	}
}

func TestRefString(t *testing.T) {
	p := NewProgram("t")
	v := p.AddVar("v", 4)
	w := p.AddVar("w", 4, 4)
	r := Wr(v, Idx("k"))
	r.ID = 7
	r.SegID = 2
	if got := r.String(); got != "write v[k]@S2#7" {
		t.Errorf("String = %q", got)
	}
	if got := r.AccessText(); got != "write v[k]" {
		t.Errorf("AccessText = %q", got)
	}
	// Compound subscripts: a parenthesized binary operation and a nested
	// load, rendered by the same rule as the formatter's.
	nested := Wr(w, Op(Add, Idx("k"), C(1)), Rd(v, Op(Mul, C(2), Idx("j"))))
	if got, want := nested.AccessText(), "write w[(k + 1),v[(2 * j)]]"; got != want {
		t.Errorf("AccessText = %q, want %q", got, want)
	}
	if got, want := nested.Subs[1].String(), "v[(2 * j)]"; got != want {
		t.Errorf("Load.String = %q, want %q", got, want)
	}
}
