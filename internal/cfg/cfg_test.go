package cfg

import (
	"testing"

	"refidem/internal/ir"
)

// diamond builds 0 -> {1,2} -> 3 -> exit.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g, err := New([]int{0, 1, 2, 3}, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReaches(t *testing.T) {
	g := diamond(t)
	cases := []struct {
		a, b int
		want bool
	}{
		{0, 3, true}, {0, 1, true}, {1, 2, false}, {2, 1, false},
		{3, 0, false}, {1, 3, true}, {0, 0, true}, {3, Exit, true},
	}
	for _, c := range cases {
		if got := g.Reaches(c.a, c.b); got != c.want {
			t.Errorf("Reaches(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestOnCommonPath(t *testing.T) {
	g := diamond(t)
	if g.OnCommonPath(1, 2) {
		t.Error("exclusive branches 1,2 should not share a path")
	}
	if !g.OnCommonPath(0, 3) || !g.OnCommonPath(3, 0) {
		t.Error("0 and 3 share every path")
	}
}

func TestBFSOrder(t *testing.T) {
	g := diamond(t)
	var order []int
	g.BFS(func(n int) { order = append(order, n) })
	if len(order) != 4 || order[0] != 0 || order[3] != 3 {
		t.Errorf("BFS order = %v", order)
	}
}

func TestPathsEnumeration(t *testing.T) {
	g := diamond(t)
	paths := g.Paths(0, 0)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2: %v", len(paths), paths)
	}
	for _, p := range paths {
		if p[0] != 0 || p[len(p)-1] != 3 {
			t.Errorf("path %v should start at 0 and end at 3", p)
		}
	}
	// maxPaths bounds enumeration.
	if got := g.Paths(0, 1); len(got) != 1 {
		t.Errorf("bounded enumeration returned %d paths", len(got))
	}
}

func TestAgeAndYounger(t *testing.T) {
	g := diamond(t)
	if g.Age(0) != 0 || g.Age(3) != 3 || g.Age(Exit) != 4 {
		t.Errorf("ages: %d %d %d", g.Age(0), g.Age(3), g.Age(Exit))
	}
}

func TestHasBranch(t *testing.T) {
	g := diamond(t)
	if !g.HasBranch() {
		t.Error("diamond has a branch")
	}
	chain, err := New([]int{0, 1}, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if chain.HasBranch() {
		t.Error("chain has no branch")
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New([]int{0, 0}, nil); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := New([]int{Exit}, nil); err == nil {
		t.Error("reserved exit ID accepted")
	}
	if _, err := New([]int{0}, [][2]int{{0, 5}}); err == nil {
		t.Error("edge to unknown node accepted")
	}
	if _, err := New([]int{0}, [][2]int{{5, 0}}); err == nil {
		t.Error("edge from unknown node accepted")
	}
}

func TestFromRegionLoop(t *testing.T) {
	p := ir.NewProgram("t")
	a := p.AddVar("a", 4)
	r := &ir.Region{
		Name: "r", Kind: ir.LoopRegion, Index: "k", From: 1, To: 4, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(a, ir.Idx("k")), RHS: ir.C(1)},
		}}},
	}
	r.Finalize()
	g := FromRegion(r)
	if len(g.Nodes) != 1 || len(g.Succs(0)) != 1 || g.Succs(0)[0] != Exit {
		t.Errorf("loop region graph wrong: nodes=%v succs=%v", g.Nodes, g.Succs(0))
	}
}

func TestFromRegionCFG(t *testing.T) {
	p := ir.NewProgram("t")
	x := p.AddVar("x")
	segs := []*ir.Segment{
		{ID: 0, Name: "a", Succs: []int{1, 2}, Branch: ir.Rd(x)},
		{ID: 1, Name: "b", Succs: []int{3}},
		{ID: 2, Name: "c", Succs: []int{3}},
		{ID: 3, Name: "d"},
	}
	r := &ir.Region{Name: "r", Kind: ir.CFGRegion, Segments: segs}
	r.Finalize()
	g := FromRegion(r)
	if !g.HasBranch() {
		t.Error("branch lost")
	}
	if !g.Reaches(0, 3) || g.Reaches(1, 2) {
		t.Error("edges wrong")
	}
	if got := g.Succs(3); len(got) != 1 || got[0] != Exit {
		t.Errorf("segment without successors should point at Exit, got %v", got)
	}
}

func TestEntryEmptyGraph(t *testing.T) {
	g := newGraph(0)
	g.finalize()
	if g.Entry() != Exit {
		t.Error("empty graph entry should be Exit")
	}
	g.BFS(func(int) { t.Error("BFS on empty graph should not visit") })
}
