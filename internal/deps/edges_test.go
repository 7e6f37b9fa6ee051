package deps

import (
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"testing"

	"refidem/internal/cfg"
	"refidem/internal/gen"
	"refidem/internal/ir"
	"refidem/internal/workloads"
)

// TestDependenceListDigest pins the order of every dependence list and
// sink group across a corpus: seeds 1-20 of every generator profile and
// the paper's named loops (311 programs, 47,134 edges). The digest hashes
// each region's All in order, then each reference's SinksAt group in
// order, as the dependence lists print them; it was recorded when edges
// still held reference pointers, so a change to the edge representation
// must reproduce it.
func TestDependenceListDigest(t *testing.T) {
	const want = "625a87b57bd1cbf94d8ddf38ec489679ecc0684dbef87217902971a22289715c"
	var progs []*ir.Program
	for _, prof := range gen.Profiles() {
		for seed := int64(1); seed <= 20; seed++ {
			progs = append(progs, gen.FromProfile(prof, seed).Program)
		}
	}
	for _, spec := range workloads.NamedLoops() {
		progs = append(progs, spec.Program())
	}
	h := sha256.New()
	edges := 0
	for _, p := range progs {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, r := range p.Regions {
			a := Analyze(r, cfg.FromRegion(r))
			for _, d := range a.All {
				io.WriteString(h, a.Text(d)+"\n")
			}
			edges += len(a.All)
			for _, ref := range r.Refs {
				io.WriteString(h, "sinks\n")
				for _, e := range a.SinksAt(ref) {
					io.WriteString(h, a.Text(a.All[e])+"\n")
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("%d programs, %d edges: digest %s, want %s", len(progs), edges, got, want)
	}
}

// TestAnalyzeBytesPerEdge bounds what one edge costs to build. The region
// is 500 statements a[i] = a[i] + k in a loop over i: 1,000 references to
// a, and every pair with a write among them is one intra-segment edge
// (374,750 edges), so edges dominate the analysis.
func TestAnalyzeBytesPerEdge(t *testing.T) {
	p := ir.NewProgram("t")
	av := p.AddVar("a", 16)
	k := p.AddVar("k")
	body := make([]ir.Stmt, 500)
	for i := range body {
		body[i] = &ir.Assign{LHS: ir.Wr(av, ir.Idx("i")), RHS: ir.AddE(ir.Rd(av, ir.Idx("i")), ir.Rd(k))}
	}
	r := &ir.Region{Name: "r", Kind: ir.LoopRegion, Index: "i", From: 1, To: 8, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: body}}}
	r.Finalize()
	p.AddRegion(r)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g := cfg.FromRegion(r)
	r.DenseIndex()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := Analyze(r, g)
	runtime.ReadMemStats(&after)
	if len(a.All) != 374750 {
		t.Fatalf("%d edges, want 374750", len(a.All))
	}
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(a.All))
	t.Logf("%.1f bytes per edge", perEdge)
	if perEdge > 100 {
		t.Errorf("Analyze allocated %.1f bytes per edge, want at most 100", perEdge)
	}
}
