package idem

import (
	"testing"

	"refidem/internal/deps"
	"refidem/internal/gen"
	"refidem/internal/ir"
)

// buildIndirect is the canonical uncertain-address region: a[ia[k]] =
// a[ib[k]] + 1. The exact solver cannot refute the a-vs-a pairs, so the
// a-read and a-write stay speculative under Algorithm 2.
func buildIndirect(t *testing.T) (*ir.Program, *ir.Region, *ir.Ref, *ir.Ref) {
	t.Helper()
	p := ir.NewProgram("t")
	av := p.AddVar("a", 64)
	ia := p.AddVar("ia", 8)
	ib := p.AddVar("ib", 8)
	r := &ir.Region{
		Name: "r", Kind: ir.LoopRegion, Index: "k", From: 0, To: 3, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Assign{
				LHS: ir.Wr(av, ir.Rd(ia, ir.Idx("k"))),
				RHS: ir.AddE(ir.Rd(av, ir.Rd(ib, ir.Idx("k"))), ir.C(1)),
			},
		}}},
	}
	r.Finalize()
	p.AddRegion(r)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
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
	return p, r, aRead, aWrite
}

// TestProbDegeneratesToLabels: results from the plain entry points carry
// no overlay and Prob is exactly the label.
func TestProbDegeneratesToLabels(t *testing.T) {
	p, r, _, _ := buildIndirect(t)
	res := LabelProgram(p)[r]
	for _, ref := range r.Refs {
		want := 0.0
		if res.Label(ref) == Idempotent {
			want = 1
		}
		if got := res.Prob(ref); got != want {
			t.Errorf("ref %v: Prob = %v, want %v (label %v)", ref, got, want, res.Label(ref))
		}
	}
}

// TestProbWithoutSpecMembersIsExact: an ensemble with only sound members
// yields the base labels and a 1/0 overlay — P == 1 exactly on the
// proved-idempotent set.
func TestProbWithoutSpecMembersIsExact(t *testing.T) {
	p, r, _, _ := buildIndirect(t)
	base := LabelProgram(p)[r]
	res := LabelProgramEnsemble(p, deps.Ensemble{Range: true})[r]
	for _, ref := range r.Refs {
		if res.Label(ref) != base.Label(ref) {
			t.Errorf("ref %v: ensemble label %v != base %v", ref, res.Label(ref), base.Label(ref))
		}
		want := 0.0
		if base.Label(ref) == Idempotent {
			want = 1
		}
		if got := res.Prob(ref); got != want {
			t.Errorf("ref %v: Prob = %v, want %v", ref, got, want)
		}
	}
}

// TestProbSpeculativeOverlay: a profile claiming the a-read and a-write
// never alias lifts the read's P to the edge confidence; the write stays
// at 0 because its own cross output dependence (against itself) is not
// refutable, and nothing reaches exactly 1.
func TestProbSpeculativeOverlay(t *testing.T) {
	p, r, aRead, aWrite := buildIndirect(t)
	obs := make([]deps.RefObs, len(r.Refs))
	obs[aWrite.ID] = deps.RefObs{Min: 0, Max: 3, Count: 4}
	obs[aRead.ID] = deps.RefObs{Min: 10, Max: 13, Count: 4}
	prof := &deps.Profile{Obs: map[*ir.Region][]deps.RefObs{r: obs}}
	res := LabelProgramEnsemble(p, deps.Ensemble{Profile: prof})[r]

	if res.Label(aRead) != Speculative || res.Label(aWrite) != Speculative {
		t.Fatal("base labels must stay speculative under the overlay")
	}
	// The read's only dependence sink is the cross flow from the a-write,
	// annotated at 4/5.
	if got, want := res.Prob(aRead), 4.0/5.0; got != want {
		t.Errorf("P(read) = %v, want %v", got, want)
	}
	// The write is the sink of a cross output dependence on itself, which
	// no observation can refute (same ref, same range): P stays 0.
	if got := res.Prob(aWrite); got != 0 {
		t.Errorf("P(write) = %v, want 0", got)
	}
	for _, ref := range r.Refs {
		pr := res.Prob(ref)
		if pr < 0 || pr > 1 {
			t.Errorf("ref %v: P = %v out of range", ref, pr)
		}
		if (pr == 1) != (res.Label(ref) == Idempotent) {
			t.Errorf("ref %v: P == 1 must coincide with a proved label (P=%v, label=%v)",
				ref, pr, res.Label(ref))
		}
	}
}

// TestProbInvariantsRandom sweeps generated programs: ensemble labels
// identical to LabelProgram, P in [0,1], and P == 1 exactly on the
// proved set, with the full ensemble (minus profile, which needs a
// replay) enabled.
func TestProbInvariantsRandom(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 3
	}
	for _, prof := range gen.Profiles() {
		for seed := int64(0); seed < seeds; seed++ {
			sc := gen.Generate(seed*17+3, prof.Cfg)
			if err := sc.Program.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", prof.Name, seed, err)
			}
			base := LabelProgram(sc.Program)
			ens := LabelProgramEnsemble(sc.Program, deps.Ensemble{Range: true, MustWriteFirst: true})
			for _, r := range sc.Program.Regions {
				b, e := base[r], ens[r]
				for _, ref := range r.Refs {
					if b.Label(ref) != e.Label(ref) {
						t.Fatalf("%s seed %d %s: label drift on %v", prof.Name, seed, r.Name, ref)
					}
					pr := e.Prob(ref)
					if pr < 0 || pr > 1 {
						t.Fatalf("%s seed %d %s: P(%v) = %v", prof.Name, seed, r.Name, ref, pr)
					}
					if (pr == 1) != (e.Label(ref) == Idempotent) {
						t.Fatalf("%s seed %d %s: P==1 mismatch on %v (P=%v label=%v)",
							prof.Name, seed, r.Name, ref, pr, e.Label(ref))
					}
				}
				if errs := e.CheckTheorems(); len(errs) > 0 {
					t.Fatalf("%s seed %d %s: %v", prof.Name, seed, r.Name, errs[0])
				}
			}
		}
	}
}
