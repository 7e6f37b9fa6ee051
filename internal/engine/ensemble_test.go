package engine

import (
	"testing"

	"refidem/internal/deps"
	"refidem/internal/gen"
	"refidem/internal/idem"
	"refidem/internal/ir"
)

// disjointIndirect builds the honest-speculation workload: a first region
// seeds index arrays with provably disjoint targets, then a loop updates
// through them — a[ia[k]] = a[ib[k]] + 1 with ia[k] = k and ib[k] =
// k + 10. Exact analysis cannot refute the a-vs-a pairs (the subscripts
// are not affine), but a profile replay observes write addresses 0..3
// against read addresses 10..13 and answers "never aliases" at 4/5.
func disjointIndirect() *ir.Program {
	p := ir.NewProgram("di")
	a := p.AddVar("a", 16)
	ia := p.AddVar("ia", 4)
	ib := p.AddVar("ib", 4)
	seedR := &ir.Region{Name: "seed", Kind: ir.LoopRegion, Index: "k", From: 0, To: 3, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(ia, ir.Idx("k")), RHS: ir.Idx("k")},
			&ir.Assign{LHS: ir.Wr(ib, ir.Idx("k")), RHS: ir.AddE(ir.Idx("k"), ir.C(10))},
		}}}}
	seedR.Ann.LiveOut = map[string]bool{"ia": true, "ib": true}
	seedR.Finalize()
	p.AddRegion(seedR)
	loop := &ir.Region{Name: "loop", Kind: ir.LoopRegion, Index: "k", From: 0, To: 3, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(a, ir.Rd(ia, ir.Idx("k"))),
				RHS: ir.AddE(ir.Rd(a, ir.Rd(ib, ir.Idx("k"))), ir.C(1))},
		}}}}
	loop.Ann.LiveOut = map[string]bool{"a": true}
	loop.Finalize()
	p.AddRegion(loop)
	return p
}

func sameMemory(a, b *Result) bool {
	if len(a.Memory) != len(b.Memory) {
		return false
	}
	for i := range a.Memory {
		if a.Memory[i] != b.Memory[i] {
			return false
		}
	}
	return true
}

// TestSpecThresholdOneMatchesBaseline: with the full ensemble (profile
// included) and SpecThreshold = 1.0, CASE is cycle- and byte-identical to
// CASE under the plain labeler, and nothing is promoted — P = 1 only on
// proved references, so the bypass set is exactly the label set.
func TestSpecThresholdOneMatchesBaseline(t *testing.T) {
	progs := []*ir.Program{disjointIndirect()}
	for _, prof := range gen.Profiles() {
		for seed := int64(0); seed < 2; seed++ {
			progs = append(progs, gen.Generate(seed*29+11, prof.Cfg).Program)
		}
	}
	cfg := DefaultConfig()
	for i, p := range progs {
		if err := p.Validate(); err != nil {
			t.Fatalf("prog %d: %v", i, err)
		}
		base, err := RunSpeculative(p, idem.LabelProgram(p), cfg, CASE)
		if err != nil {
			t.Fatalf("prog %d baseline: %v", i, err)
		}
		replay, err := CollectProfile(p, cfg)
		if err != nil {
			t.Fatalf("prog %d profile: %v", i, err)
		}
		labs := idem.LabelProgramEnsemble(p, deps.Ensemble{
			Range: true, MustWriteFirst: true, Profile: replay,
		})
		tcfg := cfg
		tcfg.SpecThreshold = 1.0
		got, err := RunSpeculative(p, labs, tcfg, CASE)
		if err != nil {
			t.Fatalf("prog %d threshold: %v", i, err)
		}
		if got.Cycles != base.Cycles || !sameMemory(got, base) {
			t.Errorf("prog %d (%s): threshold-1.0 run diverged from baseline (cycles %d vs %d)",
				i, p.Name, got.Cycles, base.Cycles)
		}
		if got.Stats.SpecPromotedRefs != 0 {
			t.Errorf("prog %d (%s): %d refs promoted at threshold 1.0",
				i, p.Name, got.Stats.SpecPromotedRefs)
		}
	}
}

// TestSpecThresholdPromotes: at a threshold below the profile member's
// confidence, the uncertain read is promoted to the guard-elided path
// (observable in Stats.SpecPromotedRefs), and because the observation is
// honest the final memory still matches sequential execution.
func TestSpecThresholdPromotes(t *testing.T) {
	p := disjointIndirect()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	replay, err := CollectProfile(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	labs := idem.LabelProgramEnsemble(p, deps.Ensemble{Range: true, Profile: replay})

	loop := p.Regions[1]
	var aRead *ir.Ref
	for _, ref := range loop.Refs {
		if ref.Var == p.Var("a") && ref.Access == ir.Read {
			aRead = ref
		}
	}
	if aRead == nil {
		t.Fatal("a-read not found")
	}
	if got, want := labs[loop].Prob(aRead), 4.0/5.0; got != want {
		t.Fatalf("P(a-read) = %v, want %v", got, want)
	}
	if labs[loop].Label(aRead) != idem.Speculative {
		t.Fatal("the base label must stay Speculative")
	}

	cfg.SpecThreshold = 0.75
	seq, err := RunSequential(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSpeculative(p, labs, cfg, CASE)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.SpecPromotedRefs == 0 {
		t.Error("expected promoted dynamic references at threshold 0.75")
	}
	if !sameMemory(got, seq) {
		t.Error("honest promotion must preserve final memory")
	}
}

// TestCollectProfileObservations: the replay's per-reference observation
// ranges and counts match the program by construction, and the whole
// collection is deterministic.
func TestCollectProfileObservations(t *testing.T) {
	p := chain(8)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	prof, err := CollectProfile(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Regions[0]
	obs := prof.Obs[r]
	if len(obs) != len(r.Refs) {
		t.Fatalf("obs length %d, want %d", len(obs), len(r.Refs))
	}
	for _, ref := range r.Refs {
		o := obs[ref.ID]
		if o.Count != 8 {
			t.Errorf("ref %v: count %d, want 8", ref, o.Count)
		}
		// x[k] for k in 1..8 and x[k-1] for k in 1..8 each span 8 slots.
		if o.Max-o.Min != 7 {
			t.Errorf("ref %v: range [%d,%d], want a span of 7", ref, o.Min, o.Max)
		}
	}
	again, err := CollectProfile(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range r.Refs {
		if again.Obs[r][ref.ID] != obs[ref.ID] {
			t.Errorf("ref %v: profile replay is not deterministic", ref)
		}
	}
}
