package refidem

import (
	"strings"
	"testing"

	"refidem/internal/ir"
	"refidem/internal/workloads"
)

const quickSrc = `
program quick
var a[64]
var b[64]
var sum[40]
region main loop k = 0 to 31 {
  liveout a, sum
  a[k] = b[k] * 2 + b[k+1]
  sum[k+6] = sum[k] + a[k]
}
`

func TestParseLabelRun(t *testing.T) {
	p, err := ParseProgram(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rs.CaseSpeedup() <= 1 {
		t.Errorf("CASE speedup %.2f, want > 1", rs.CaseSpeedup())
	}
	if f := rs.IdempotentFraction(); f < 0.5 {
		t.Errorf("idempotent fraction %.2f, want > 0.5", f)
	}
	if rs.Hose == nil || rs.Seq == nil || rs.Case == nil {
		t.Error("missing results")
	}
}

func TestParseError(t *testing.T) {
	if _, err := ParseProgram("program broken region"); err == nil {
		t.Error("bad source accepted")
	}
}

// TestRunRejectsInvalidProgram: every runner returns Validate's error for
// a program it rejects, here a region stripped of its segments, and two
// that only a builder can construct: a recursive procedure, and a call
// resolved after its region was finalized, which left it unexpanded.
func TestRunRejectsInvalidProgram(t *testing.T) {
	segless, err := ParseProgram(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	segless.Regions[0].Segments = nil

	rec := ir.NewProgram("rec")
	s := rec.AddVar("s")
	rec.AddProc("f", nil, []ir.Stmt{
		&ir.Assign{LHS: ir.Wr(s), RHS: ir.C(1)},
		&ir.Call{Callee: "f"},
	})
	r := &ir.Region{Name: "r", Kind: ir.LoopRegion, Index: "i", From: 0, To: 3, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{&ir.Call{Callee: "f"}}}}}
	rec.AddRegion(r)
	if err := rec.ResolveCalls(); err != nil {
		t.Fatal(err)
	}
	r.Finalize()

	stale := ir.NewProgram("stale")
	a := stale.AddVar("a", 8)
	stale.AddProc("g", []string{"x"}, []ir.Stmt{&ir.Assign{LHS: ir.Wr(a, ir.Idx("x")), RHS: ir.C(1)}})
	sr := &ir.Region{Name: "r", Kind: ir.LoopRegion, Index: "i", From: 0, To: 3, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(a, ir.Idx("i")), RHS: ir.C(2)},
			&ir.Call{Callee: "g", Args: []ir.Expr{ir.Idx("i")}},
		}}}}
	stale.AddRegion(sr)
	sr.Finalize()
	if err := stale.ResolveCalls(); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	runners := []struct {
		name string
		run  func(p *Program) error
	}{
		{"Run", func(p *Program) error { _, err := Run(p, cfg); return err }},
		{"RunSequential", func(p *Program) error { _, err := RunSequential(p, cfg); return err }},
		{"RunHOSE", func(p *Program) error { _, err := RunHOSE(p, nil, cfg); return err }},
		{"RunCASE", func(p *Program) error { _, err := RunCASE(p, nil, cfg); return err }},
	}
	for _, p := range []*Program{segless, rec, stale} {
		want := p.Validate()
		if want == nil {
			t.Fatalf("%s: Validate accepted an invalid program", p.Name)
		}
		for _, rn := range runners {
			if err := rn.run(p); err == nil || err.Error() != want.Error() {
				t.Errorf("%s(%s) = %v, want %v", rn.name, p.Name, err, want)
			}
		}
	}
}

func TestLabelFacade(t *testing.T) {
	p := workloads.Figure2()
	labs := LabelProgram(p)
	if len(labs) != 1 {
		t.Fatalf("got %d labelings", len(labs))
	}
	lab := LabelRegion(p, p.Regions[0])
	if lab == nil || len(lab.Region.Refs) == 0 {
		t.Fatal("empty labeling")
	}
	counts := map[Label]int{}
	for _, ref := range lab.Region.Refs {
		counts[lab.Label(ref)]++
	}
	if counts[Idempotent] == 0 || counts[Speculative] == 0 {
		t.Errorf("figure 2 should mix labels: %v", counts)
	}
}

func TestRunOnPaperExamples(t *testing.T) {
	for _, p := range []*Program{
		workloads.IntroExample(), workloads.Figure2(), workloads.Figure3(), workloads.ButsDO1(6),
	} {
		rs, err := Run(p, DefaultConfig())
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if rs.Case.Stats.DynRefs == 0 {
			t.Errorf("%s: nothing executed", p.Name)
		}
	}
}

func TestCategoryConstantsRoundTrip(t *testing.T) {
	names := []string{
		CatSpeculative.String(), CatFullyIndependent.String(),
		CatReadOnly.String(), CatPrivate.String(), CatSharedDependent.String(),
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"speculative", "fully-independent", "read-only", "private", "shared-dependent"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing category name %q", want)
		}
	}
}
