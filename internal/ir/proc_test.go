package ir

import (
	"strings"
	"testing"
)

// buildCallProgram assembles, programmatically, a program with two
// procedures and one loop region:
//
//	proc add(x) { a[x] = s + 1 }
//	proc both(x) { call add(x); call add(x + 1) }
//	region r loop i = 0..7 { call both(2 * i) }
func buildCallProgram(t *testing.T) (*Program, *Var, *Var) {
	t.Helper()
	p := NewProgram("calls")
	a := p.AddVar("a", 32)
	s := p.AddVar("s")
	p.AddProc("add", []string{"x"}, []Stmt{
		&Assign{LHS: Wr(a, Idx("x")), RHS: AddE(Rd(s), C(1))},
	})
	p.AddProc("both", []string{"x"}, []Stmt{
		&Call{Callee: "add", Args: []Expr{Idx("x")}},
		&Call{Callee: "add", Args: []Expr{AddE(Idx("x"), C(1))}},
	})
	r := &Region{
		Name: "r", Kind: LoopRegion, Index: "i", From: 0, To: 7, Step: 1,
		Segments: []*Segment{{ID: 0, Body: []Stmt{
			&Call{Callee: "both", Args: []Expr{MulE(C(2), Idx("i"))}},
		}}},
	}
	p.AddRegion(r)
	if err := p.ResolveCalls(); err != nil {
		t.Fatalf("ResolveCalls: %v", err)
	}
	r.Finalize()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return p, a, s
}

func TestCallExpansionRefsAndAffineBinding(t *testing.T) {
	p, a, s := buildCallProgram(t)
	r := p.Regions[0]
	// both(2i) -> add(2i); add(2i+1) -> each add contributes read s,
	// write a[..]: 4 refs total.
	if len(r.Refs) != 4 {
		t.Fatalf("expanded refs = %d, want 4; refs: %v", len(r.Refs), r.Refs)
	}
	idx := r.DenseIndex()
	var writes []*Ref
	for _, ref := range r.Refs {
		if ref.Var == a && ref.Access == Write {
			writes = append(writes, ref)
		}
	}
	if len(writes) != 2 {
		t.Fatalf("want 2 writes to a, got %d", len(writes))
	}
	// The substituted subscripts must be affine in the region index with
	// the composed coefficients: 2*i and 2*i + 1.
	wantConst := map[int64]bool{0: false, 1: false}
	for _, w := range writes {
		if !idx.AddrCertain[w.ID] {
			t.Fatalf("write %v not address-certain after affine binding", w)
		}
		aff := idx.Aff[w.ID][0]
		if !aff.OK || aff.Reg != 2 {
			t.Fatalf("write %v: affine form %+v, want Reg=2", w, aff)
		}
		if _, ok := wantConst[aff.Const]; !ok {
			t.Fatalf("write %v: unexpected constant %d", w, aff.Const)
		}
		wantConst[aff.Const] = true
	}
	for c, seen := range wantConst {
		if !seen {
			t.Fatalf("no write with constant offset %d", c)
		}
	}
	for _, ref := range r.Refs {
		if ref.Var == s && ref.Access != Read {
			t.Fatalf("s must only be read, got %v", ref)
		}
	}
	// Finalize is idempotent: re-running renumbers to the same shape.
	before := len(r.Refs)
	r.Finalize()
	if len(r.Refs) != before {
		t.Fatalf("re-Finalize changed ref count %d -> %d", before, len(r.Refs))
	}
}

func TestCallExpansionRenamesCapturedLoopIndex(t *testing.T) {
	p := NewProgram("capture")
	a := p.AddVar("a", 64)
	p.AddProc("f", []string{"x"}, []Stmt{
		&For{Index: "j", From: 0, To: 1, Step: 1, Body: []Stmt{
			&Assign{LHS: Wr(a, AddE(Idx("x"), Idx("j"))), RHS: C(1)},
		}},
	})
	r := &Region{
		Name: "r", Kind: LoopRegion, Index: "i", From: 0, To: 3, Step: 1,
		Segments: []*Segment{{ID: 0, Body: []Stmt{
			// The callsite sits inside its own "for j": the proc's inner
			// "for j" must be renamed or the argument j would be captured.
			&For{Index: "j", From: 0, To: 2, Step: 1, Body: []Stmt{
				&Call{Callee: "f", Args: []Expr{MulE(C(4), Idx("j"))}},
			}},
		}}},
	}
	p.AddRegion(r)
	if err := p.ResolveCalls(); err != nil {
		t.Fatal(err)
	}
	r.Finalize()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate after rename: %v", err)
	}
	// The write subscript must be 4*j_outer + j_renamed: two distinct
	// enclosing loops in its context.
	var w *Ref
	for _, ref := range r.Refs {
		if ref.Access == Write {
			w = ref
		}
	}
	if w == nil || len(w.Ctx.Loops) != 2 {
		t.Fatalf("write context loops = %+v, want 2 enclosing loops", w)
	}
	if w.Ctx.Loops[0].Index == w.Ctx.Loops[1].Index {
		t.Fatalf("inner loop not renamed: both indices %q", w.Ctx.Loops[0].Index)
	}
	aff := r.DenseIndex().Aff[w.ID][0]
	if !aff.OK || aff.Depth[0] != 4 || aff.Depth[1] != 1 {
		t.Fatalf("affine form %+v, want Depth[0]=4 Depth[1]=1", aff)
	}
}

// TestSimultaneousParamSubstitution: an argument referencing a caller
// index whose name equals a *later* parameter must not be rewritten by
// that parameter's substitution (sequential substitution would turn
// a[x] into a[0] here; the simultaneous pass keeps it a[i]).
func TestSimultaneousParamSubstitution(t *testing.T) {
	p := NewProgram("capture2")
	a := p.AddVar("a", 16)
	b := p.AddVar("b", 16)
	p.AddProc("f", []string{"x", "i"}, []Stmt{
		&Assign{LHS: Wr(a, Idx("x")), RHS: C(1)},
		&Assign{LHS: Wr(b, Idx("i")), RHS: C(2)},
	})
	r := &Region{
		Name: "r", Kind: LoopRegion, Index: "i", From: 0, To: 3, Step: 1,
		Segments: []*Segment{{ID: 0, Body: []Stmt{
			&Call{Callee: "f", Args: []Expr{Idx("i"), C(0)}},
		}}},
	}
	p.AddRegion(r)
	if err := p.ResolveCalls(); err != nil {
		t.Fatal(err)
	}
	r.Finalize()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	idx := r.DenseIndex()
	for _, ref := range r.Refs {
		aff := idx.Aff[ref.ID][0]
		switch ref.Var {
		case a:
			// x := i (the caller's region index), untouched by i := 0.
			if !aff.OK || aff.Reg != 1 || aff.Const != 0 {
				t.Fatalf("a's subscript captured: %+v (want the region index)", aff)
			}
		case b:
			if !aff.OK || aff.Reg != 0 || aff.Const != 0 {
				t.Fatalf("b's subscript %+v, want constant 0", aff)
			}
		}
	}
}

func TestRecursionDetectedAndNotExpanded(t *testing.T) {
	p := NewProgram("rec")
	s := p.AddVar("s")
	f := p.AddProc("f", []string{"x"}, nil)
	p.AddProc("g", []string{"y"}, []Stmt{
		&Call{Callee: "f", Args: []Expr{Idx("y")}},
	})
	f.Body = []Stmt{
		&Assign{LHS: Wr(s), RHS: C(1)},
		&Call{Callee: "g", Args: []Expr{Idx("x")}},
	}
	r := &Region{
		Name: "r", Kind: LoopRegion, Index: "i", From: 0, To: 1, Step: 1,
		Segments: []*Segment{{ID: 0, Body: []Stmt{
			&Call{Callee: "f", Args: []Expr{Idx("i")}},
		}}},
	}
	p.AddRegion(r)
	if err := p.ResolveCalls(); err != nil {
		t.Fatal(err)
	}
	r.Finalize() // must terminate despite the cycle
	cyc := p.RecursionCycle()
	if len(cyc) != 3 || cyc[0] != cyc[2] {
		t.Fatalf("RecursionCycle = %v, want a closed f/g cycle", cyc)
	}
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "recursive procedure call cycle") {
		t.Fatalf("Validate = %v, want recursion error", err)
	}
	// The region call expanded one level (f's body) but the cyclic call
	// back into the chain stayed unexpanded.
	call := r.Segments[0].Body[0].(*Call)
	if call.Inlined == nil {
		t.Fatalf("outer call should expand one level")
	}
	nested := call.Inlined[1].(*Call)
	if nested.Inlined == nil || len(nested.Inlined) != 1 {
		t.Fatalf("g should expand inside f")
	}
	back := nested.Inlined[0].(*Call)
	if back.Inlined != nil {
		t.Fatalf("cyclic call back into f must stay unexpanded")
	}
}

func TestHasEarlyExitThroughCall(t *testing.T) {
	p := NewProgram("exit")
	s := p.AddVar("s")
	p.AddProc("f", nil, []Stmt{
		&ExitRegion{Cond: Rd(s)},
	})
	r := &Region{
		Name: "r", Kind: LoopRegion, Index: "i", From: 0, To: 3, Step: 1,
		Segments: []*Segment{{ID: 0, Body: []Stmt{
			&Call{Callee: "f"},
		}}},
	}
	p.AddRegion(r)
	if err := p.ResolveCalls(); err != nil {
		t.Fatal(err)
	}
	if !r.HasEarlyExit() {
		t.Fatalf("exit inside callee not detected before Finalize")
	}
	r.Finalize()
	if !r.HasEarlyExit() {
		t.Fatalf("exit inside callee not detected after Finalize")
	}
}

func TestValidateCallErrors(t *testing.T) {
	build := func(mutate func(p *Program, r *Region)) error {
		p := NewProgram("bad")
		a := p.AddVar("a", 8)
		p.AddProc("f", []string{"x"}, []Stmt{
			&Assign{LHS: Wr(a, Idx("x")), RHS: C(1)},
		})
		r := &Region{
			Name: "r", Kind: LoopRegion, Index: "i", From: 0, To: 1, Step: 1,
			Segments: []*Segment{{ID: 0, Body: []Stmt{
				&Call{Callee: "f", Args: []Expr{Idx("i")}},
			}}},
		}
		p.AddRegion(r)
		mutate(p, r)
		if err := p.ResolveCalls(); err != nil {
			return err
		}
		r.Finalize()
		return p.Validate()
	}
	cases := []struct {
		name   string
		mutate func(p *Program, r *Region)
		want   string
	}{
		{"unknown", func(p *Program, r *Region) {
			r.Segments[0].Body[0].(*Call).Callee = "nope"
		}, `unknown procedure "nope"`},
		{"arity", func(p *Program, r *Region) {
			c := r.Segments[0].Body[0].(*Call)
			c.Args = append(c.Args, C(1))
		}, `1 parameters`},
		{"load-arg", func(p *Program, r *Region) {
			c := r.Segments[0].Body[0].(*Call)
			c.Args[0] = Rd(p.Var("a"), C(0))
		}, "must be index expressions"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := build(tc.mutate)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestBlockProgramWithCalls(t *testing.T) {
	p, _, _ := buildCallProgram(t)
	blocked, err := BlockProgram(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := blocked.ResolveCalls(); err != nil {
		t.Fatal(err)
	}
	for _, r := range blocked.Regions {
		r.Finalize()
	}
	if err := blocked.Validate(); err != nil {
		t.Fatalf("blocked program invalid: %v", err)
	}
	// Blocking wraps the original body in an inner loop: the textual
	// reference set is unchanged, only subscripts are re-expressed.
	if got, want := len(blocked.Regions[0].Refs), len(p.Regions[0].Refs); got != want {
		t.Fatalf("blocked refs = %d, want %d", got, want)
	}
}
