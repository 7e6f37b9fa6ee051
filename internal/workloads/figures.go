// Package workloads provides the programs used by the test suite, the
// examples and the experiment harness: reconstructions of the paper's
// worked examples (Figures 1-4) and the synthetic benchmark suite standing
// in for the paper's SPEC FP / Perfect club benchmarks (see DESIGN.md §3
// for the substitution rationale).
package workloads

import (
	"fmt"

	"refidem/internal/ir"
)

// Example builds the worked example a request or command line names:
// "fig1" (or "intro"), "fig2", "fig3" and "buts" (or "fig4", the loop at
// n = 8). Every name resolves to a fresh program. This is the one example
// table: the service resolves example requests with it, and the router
// places them by the fingerprint of the program it returns.
func Example(name string) (*ir.Program, error) {
	switch name {
	case "fig1", "intro":
		return IntroExample(), nil
	case "fig2":
		return Figure2(), nil
	case "fig3":
		return Figure3(), nil
	case "buts", "fig4":
		return ButsDO1(8), nil
	}
	return nil, fmt.Errorf("unknown example %q (want fig1, fig2, fig3, buts)", name)
}

// IntroExample reconstructs Figure 1: a two-segment region where B is
// read-only, A carries a cross-segment flow dependence (write in segment
// 1, read in segment 2), and C is private to segment 2.
//
// The paper's walkthrough: all B references are idempotent (read-only);
// the write to A in segment 1 is idempotent (a first write that is only a
// dependence source); the read of A in segment 2 is the dependence sink
// and must remain speculative; all C references are idempotent (private).
func IntroExample() *ir.Program {
	p := ir.NewProgram("intro")
	a := p.AddVar("A")
	b := p.AddVar("B")
	c := p.AddVar("C")
	t1 := p.AddVar("t1")
	t2 := p.AddVar("t2")

	s1 := &ir.Segment{ID: 0, Name: "seg1", Succs: []int{1}, Body: []ir.Stmt{
		&ir.Assign{LHS: ir.Wr(t1), RHS: ir.Rd(b)},
		&ir.Assign{LHS: ir.Wr(a), RHS: ir.AddE(ir.Rd(t1), ir.C(1))},
	}}
	s2 := &ir.Segment{ID: 1, Name: "seg2", Body: []ir.Stmt{
		&ir.Assign{LHS: ir.Wr(c), RHS: ir.AddE(ir.Rd(b), ir.C(2))},
		&ir.Assign{LHS: ir.Wr(t2), RHS: ir.AddE(ir.Rd(c), ir.Rd(a))},
	}}
	r := &ir.Region{Name: "intro", Kind: ir.CFGRegion, Segments: []*ir.Segment{s1, s2}}
	r.Ann.LiveOut = map[string]bool{"A": true, "t2": true}
	r.Finalize()
	p.AddRegion(r)
	return p
}

// Figure2 reconstructs the example region of Figure 2: five segments
// R0..R4 with R1 branching to the exclusive segments R2 and R3, both
// rejoining at R4.
//
// The statements are arranged so that every fact the paper states about
// the example holds:
//
//	RFW(R0)={C,N,J}, RFW(R1)={E,J}, RFW(R2)={A}, RFW(R3)={A}, RFW(R4)={F};
//	B's writes are not RFW (conditional in R2; path through R2 may skip
//	the write in R3); K[E]'s writes are not RFW (uncertain address);
//	H's write in R4 is preceded by a read;
//	J in R1 and F in R4 are RFW but not idempotent (sinks of output and
//	anti dependences from R0); the reads of N in R2 and E in R3 are
//	speculative (cross-segment flow sinks); G reads, the F read in R0 and
//	the H read in R4 are independent reads (idempotent by Lemma 4); the
//	reads of N and C in R0 and A in R3 are covered reads (Lemma 6).
//
// One delta from the paper's prose, documented in DESIGN.md: the covered
// read of F in R4 follows a *speculative* write (F's write is the sink of
// the anti dependence from R0), so by Theorem 2 (and LC3) it must be
// speculative; the paper's example text lists it under Lemma 6, but
// Lemma 6 itself requires the covering write to be idempotent.
func Figure2() *ir.Program {
	p := ir.NewProgram("figure2")
	A := p.AddVar("A")
	B := p.AddVar("B")
	C := p.AddVar("C")
	E := p.AddVar("E")
	F := p.AddVar("F")
	G := p.AddVar("G")
	H := p.AddVar("H")
	J := p.AddVar("J")
	N := p.AddVar("N")
	K := p.AddVar("K", 8)
	t0 := p.AddVar("t0")
	t1 := p.AddVar("t1")
	t2 := p.AddVar("t2")
	t3 := p.AddVar("t3")
	t4 := p.AddVar("t4")
	t5 := p.AddVar("t5")
	t6 := p.AddVar("t6")
	t7 := p.AddVar("t7")

	r0 := &ir.Segment{ID: 0, Name: "R0", Succs: []int{1}, Body: []ir.Stmt{
		&ir.Assign{LHS: ir.Wr(C), RHS: ir.AddE(ir.Rd(G), ir.C(1))}, // C = G + ...
		&ir.Assign{LHS: ir.Wr(t0), RHS: ir.Rd(C)},                  // ... = C (covered)
		&ir.Assign{LHS: ir.Wr(N), RHS: ir.C(2)},                    // N = ...
		&ir.Assign{LHS: ir.Wr(t1), RHS: ir.Rd(N)},                  // ... = N (covered)
		&ir.Assign{LHS: ir.Wr(J), RHS: ir.C(3)},                    // J = ...
		&ir.Assign{LHS: ir.Wr(t2), RHS: ir.Rd(F)},                  // ... = F (anti source)
	}}
	r1 := &ir.Segment{ID: 1, Name: "R1", Succs: []int{2, 3}, Branch: ir.Rd(G), Body: []ir.Stmt{
		&ir.Assign{LHS: ir.Wr(E), RHS: ir.C(4)}, // E = ...
		&ir.Assign{LHS: ir.Wr(J), RHS: ir.C(5)}, // J = ... (output sink from R0)
	}}
	r2 := &ir.Segment{ID: 2, Name: "R2", Succs: []int{4}, Body: []ir.Stmt{
		&ir.Assign{LHS: ir.Wr(A), RHS: ir.C(6)}, // A = ...
		&ir.If{Cond: ir.Rd(A), Then: []ir.Stmt{ // IF(A) B = ... ENDIF
			&ir.Assign{LHS: ir.Wr(B), RHS: ir.C(7)},
		}},
		&ir.Assign{LHS: ir.Wr(t3), RHS: ir.Rd(N)},         // ... = N (flow sink)
		&ir.Assign{LHS: ir.Wr(K, ir.Rd(E)), RHS: ir.C(8)}, // K(E) = ...
	}}
	r3 := &ir.Segment{ID: 3, Name: "R3", Succs: []int{4}, Body: []ir.Stmt{
		&ir.Assign{LHS: ir.Wr(A), RHS: ir.C(9)},                     // A = ...
		&ir.Assign{LHS: ir.Wr(t4), RHS: ir.Rd(A)},                   // ... = A (covered)
		&ir.Assign{LHS: ir.Wr(t5), RHS: ir.AddE(ir.Rd(E), ir.C(1))}, // = E + (flow sink)
		&ir.Assign{LHS: ir.Wr(K, ir.Rd(E)), RHS: ir.C(10)},          // K(E) = ...
		&ir.Assign{LHS: ir.Wr(B), RHS: ir.C(11)},                    // B = ...
	}}
	r4 := &ir.Segment{ID: 4, Name: "R4", Body: []ir.Stmt{
		&ir.Assign{LHS: ir.Wr(F), RHS: ir.C(12)},                           // F = ... (anti sink from R0)
		&ir.Assign{LHS: ir.Wr(t6), RHS: ir.Rd(F)},                          // ... = F
		&ir.Assign{LHS: ir.Wr(t7), RHS: ir.Op(ir.Div, ir.Rd(G), ir.Rd(H))}, // G/H (H read exposed)
		&ir.Assign{LHS: ir.Wr(H), RHS: ir.C(13)},                           // H = ... (preceded by read)
	}}

	r := &ir.Region{Name: "figure2", Kind: ir.CFGRegion,
		Segments: []*ir.Segment{r0, r1, r2, r3, r4}}
	r.Ann.LiveOut = map[string]bool{
		"A": true, "B": true, "C": true, "E": true, "F": true,
		"H": true, "J": true, "N": true, "K": true,
	}
	r.Finalize()
	p.AddRegion(r)
	return p
}

// Figure3 reconstructs the re-occurring-first-write walkthrough of
// Figure 3: a seven-segment region (1 branching to two chains 2-4 and
// 3-5, rejoining at 6, then 7) analyzed for the variables x, y and z.
//
// Expected outcome, from the paper: the writes to x in segments 6 and 7
// are not RFW (exposed read in segment 4); the write to z in segment 6 is
// not RFW (exposed read in segment 2); all writes to y are RFW.
func Figure3() *ir.Program {
	p := ir.NewProgram("figure3")
	x := p.AddVar("x")
	y := p.AddVar("y")
	z := p.AddVar("z")
	s2t := p.AddVar("t2")
	s4t := p.AddVar("t4")
	s6t := p.AddVar("t6")

	segs := []*ir.Segment{
		{ID: 1, Name: "s1", Succs: []int{2, 3}, Branch: ir.C(1), Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(x), RHS: ir.C(1)}, // x = ...
		}},
		{ID: 2, Name: "s2", Succs: []int{4}, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(x), RHS: ir.C(2)},    // x = ...
			&ir.Assign{LHS: ir.Wr(s2t), RHS: ir.Rd(z)}, // ... = z (exposed read)
			&ir.Assign{LHS: ir.Wr(y), RHS: ir.C(3)},    // y = ...
		}},
		{ID: 3, Name: "s3", Succs: []int{5}, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(x), RHS: ir.C(4)}, // x = ...
			&ir.Assign{LHS: ir.Wr(y), RHS: ir.C(5)}, // y = ...
		}},
		{ID: 4, Name: "s4", Succs: []int{6}, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(s4t), RHS: ir.Rd(x)}, // ... = x (exposed read)
		}},
		{ID: 5, Name: "s5", Succs: []int{6}, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(y), RHS: ir.C(6)}, // y = ...
		}},
		{ID: 6, Name: "s6", Succs: []int{7}, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(y), RHS: ir.C(7)},    // y = ...
			&ir.Assign{LHS: ir.Wr(s6t), RHS: ir.Rd(y)}, // ... = y (covered)
			&ir.Assign{LHS: ir.Wr(x), RHS: ir.C(8)},    // x = ...
			&ir.Assign{LHS: ir.Wr(z), RHS: ir.C(9)},    // z = ...
		}},
		{ID: 7, Name: "s7", Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(x), RHS: ir.C(10)}, // x = ...
		}},
	}
	r := &ir.Region{Name: "figure3", Kind: ir.CFGRegion, Segments: segs}
	r.Ann.LiveOut = map[string]bool{"x": true, "y": true, "z": true}
	r.Finalize()
	p.AddRegion(r)
	return p
}

// ButsDO1 reconstructs the APPLU BUTS_DO1 loop of Figure 4, loop-
// normalized to ascending order (see DESIGN.md §3 for why): the region is
// the k loop, each iteration is a segment, and v is the only shared
// variable. S1 gathers three v cells into the private temporary t; S2
// updates v(m,i,j,k) by a read-modify-write.
//
//	region buts_do1 loop k = 2..nz-1:
//	  for j, for i:
//	    for m: t[m] = v[m,i,j,k+1] + v[m,i,j+1,k] + v[m,i+1,j,k]   (S1)
//	    for m: v[m,i,j,k] = v[m,i,j,k] - t[m]/2                    (S2)
//
// Expected labels (Theorems 1 and 2): the three S1 reads are idempotent
// (they are sources of anti dependences only); the S2 write is speculative
// (it is the sink of the cross-segment anti dependences and of the intra-
// segment anti dependence from its own right-hand-side read, so it is not
// an RFW); t references are private.
func ButsDO1(n int) *ir.Program {
	return butsDO1(n, false)
}

// ButsDO1Descending is the loop exactly as printed in Figure 4, with the
// k, j and i loops running downward. The execution-order-precise
// dependence analysis then additionally discovers that the S1 read of
// plane k+1 is the sink of a cross-iteration *flow* dependence (iteration
// k+1 executes first and writes the plane that iteration k reads), so
// that read must stay speculative — unlike in the normalized form, where
// the paper's published labels are reproduced. DESIGN.md §3 discusses the
// discrepancy.
func ButsDO1Descending(n int) *ir.Program {
	return butsDO1(n, true)
}

func butsDO1(n int, descending bool) *ir.Program {
	if n < 4 {
		n = 4
	}
	name := "applu_buts_do1"
	if descending {
		name = "applu_buts_do1_desc"
	}
	p := ir.NewProgram(name)
	v := p.AddVar("v", 5, n, n, n)
	tv := p.AddVar("t", 5)

	jFrom, jTo, iFrom, iTo, step := 1, n-2, 1, n-2, 1
	kFrom, kTo := 1, n-2
	if descending {
		jFrom, jTo, iFrom, iTo, step = n-2, 1, n-2, 1, -1
		kFrom, kTo = n-2, 1
	}
	body := []ir.Stmt{
		&ir.For{Index: "j", From: jFrom, To: jTo, Step: step, Body: []ir.Stmt{
			&ir.For{Index: "i", From: iFrom, To: iTo, Step: step, Body: []ir.Stmt{
				&ir.For{Index: "m", From: 0, To: 4, Step: 1, Body: []ir.Stmt{
					// S1
					&ir.Assign{LHS: ir.Wr(tv, ir.Idx("m")), RHS: ir.AddE(
						ir.AddE(
							ir.Rd(v, ir.Idx("m"), ir.Idx("i"), ir.Idx("j"), ir.AddE(ir.Idx("k"), ir.C(1))),
							ir.Rd(v, ir.Idx("m"), ir.Idx("i"), ir.AddE(ir.Idx("j"), ir.C(1)), ir.Idx("k")),
						),
						ir.Rd(v, ir.Idx("m"), ir.AddE(ir.Idx("i"), ir.C(1)), ir.Idx("j"), ir.Idx("k")),
					)},
				}},
				&ir.For{Index: "m", From: 0, To: 4, Step: 1, Body: []ir.Stmt{
					// S2
					&ir.Assign{LHS: ir.Wr(v, ir.Idx("m"), ir.Idx("i"), ir.Idx("j"), ir.Idx("k")),
						RHS: ir.SubE(
							ir.Rd(v, ir.Idx("m"), ir.Idx("i"), ir.Idx("j"), ir.Idx("k")),
							ir.Op(ir.Div, ir.Rd(tv, ir.Idx("m")), ir.C(2)),
						)},
				}},
			}},
		}},
	}
	r := &ir.Region{
		Name: "buts_do1", Kind: ir.LoopRegion, Index: "k", From: kFrom, To: kTo, Step: step,
		Segments: []*ir.Segment{{ID: 0, Name: "iter", Body: body}},
	}
	r.Ann.Private = map[string]bool{"t": true}
	r.Ann.LiveOut = map[string]bool{"v": true}
	r.Finalize()
	p.AddRegion(r)
	return p
}
