package idem

import (
	"sync"
	"testing"

	"refidem/internal/ir"
)

func cacheProgram(bound int) *ir.Program {
	p := ir.NewProgram("cache_test")
	a := p.AddVar("a", 32)
	b := p.AddVar("b", 32)
	seg := &ir.Segment{ID: 0, Name: "body", Body: []ir.Stmt{
		&ir.Assign{LHS: ir.Wr(a, ir.Idx("i")), RHS: ir.AddE(ir.Rd(b, ir.Idx("i")), ir.C(2))},
	}}
	r := &ir.Region{Name: "loop", Kind: ir.LoopRegion, Index: "i", From: 0, To: bound, Step: 1,
		Segments: []*ir.Segment{seg}}
	r.Finalize()
	p.AddRegion(r)
	return p
}

func TestProgramCacheHitReturnsCanonical(t *testing.T) {
	c := NewProgramCache(4)
	p1, labs1, err := c.Labeled(cacheProgram(9))
	if err != nil {
		t.Fatal(err)
	}
	p2, labs2, err := c.Labeled(cacheProgram(9))
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("hit did not return the canonical program")
	}
	if labs1[p1.Regions[0]] != labs2[p2.Regions[0]] {
		t.Error("hit did not share the labeling")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

func TestProgramCacheLabelsMatchDirectPipeline(t *testing.T) {
	c := NewProgramCache(4)
	p, labs, err := c.Labeled(cacheProgram(9))
	if err != nil {
		t.Fatal(err)
	}
	direct := LabelProgram(p)
	r := p.Regions[0]
	for _, ref := range r.Refs {
		if labs[r].Label(ref) != direct[r].Label(ref) {
			t.Errorf("ref %v: cached label %v != direct label %v", ref, labs[r].Label(ref), direct[r].Label(ref))
		}
	}
}

func TestProgramCacheEvictsLRU(t *testing.T) {
	c := NewProgramCache(2)
	for bound := 1; bound <= 3; bound++ {
		if _, _, err := c.Labeled(cacheProgram(bound)); err != nil {
			t.Fatal(err)
		}
	}
	// bound=1 is the LRU victim; re-labeling it must miss again.
	if _, _, err := c.Labeled(cacheProgram(1)); err != nil {
		t.Fatal(err)
	}
	if _, misses := c.Stats(); misses != 4 {
		t.Errorf("misses = %d, want 4 (three inserts + one post-eviction recompute)", misses)
	}
}

func TestProgramCacheConcurrentSingleCompute(t *testing.T) {
	c := NewProgramCache(4)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.Labeled(cacheProgram(5)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if _, misses := c.Stats(); misses != 1 {
		t.Errorf("misses = %d, want 1 (single compute under contention)", misses)
	}
}

func TestProgramCacheReportsValidationErrors(t *testing.T) {
	c := NewProgramCache(4)
	p := cacheProgram(5)
	p.Regions[0].Step = 0 // invalid: zero step
	if _, _, err := c.Labeled(p); err == nil {
		t.Error("invalid program labeled without error")
	}
}
