package deps

// Differential test keeping the dense alias solver (deps.go) and the
// map-based oracle (slow_test.go) in lockstep: for every reference
// pair of a population of generated programs, each level test must agree
// between the two implementations.

import (
	"testing"

	"refidem/internal/cfg"
	"refidem/internal/gen"
	"refidem/internal/ir"
)

func TestDenseSolverMatchesSlow(t *testing.T) {
	for _, prof := range gen.Profiles() {
		for seed := int64(1); seed <= 25; seed++ {
			sc := gen.Generate(seed, prof.Cfg)
			p := sc.Program
			if err := p.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", prof.Name, seed, err)
			}
			for _, r := range p.Regions {
				comparePairTests(t, r, prof.Name, seed)
			}
		}
	}
	// No profile nests deeper than 6, so deep nests compare the last
	// positional slots of the dense forms up to ir.MaxAffDepth.
	deep := gen.Config{MaxDepth: ir.MaxAffDepth, LoopPct: 70, MaxInnerTrip: 2}
	var atDepth [ir.MaxAffDepth + 1]int
	for seed := int64(1); seed <= 60; seed++ {
		p := gen.Generate(seed, deep).Program
		if err := p.Validate(); err != nil {
			t.Fatalf("deep seed %d: %v", seed, err)
		}
		for _, r := range p.Regions {
			d := 0
			for _, ref := range r.Refs {
				d = max(d, len(ref.Ctx.Loops))
			}
			atDepth[d]++
			comparePairTests(t, r, "deep", seed)
		}
	}
	if atDepth[ir.MaxAffDepth-1] == 0 || atDepth[ir.MaxAffDepth] == 0 {
		t.Errorf("regions per nest depth %v: want depths %d and %d covered",
			atDepth, ir.MaxAffDepth-1, ir.MaxAffDepth)
	}
}

func comparePairTests(t *testing.T, r *ir.Region, prof string, seed int64) {
	t.Helper()
	g := cfg.FromRegion(r)
	idx := r.DenseIndex()
	refs := r.Refs
	for i := 0; i < len(refs); i++ {
		for j := i; j < len(refs); j++ {
			r1, r2 := refs[i], refs[j]
			if r1.Var != r2.Var {
				continue
			}
			if r1.Access == ir.Read && r2.Access == ir.Read {
				continue
			}
			if i == j && r1.Access == ir.Read {
				continue
			}
			check := func(what string, dense, slow bool) {
				if dense != slow {
					t.Fatalf("%s seed %d region %s: %s on %v / %v: dense=%v slow=%v",
						prof, seed, r.Name, what, r1, r2, dense, slow)
				}
			}
			if r.Kind == ir.CFGRegion {
				if r1.SegID != r2.SegID {
					if !g.OnCommonPath(r1.SegID, r2.SegID) {
						continue
					}
					src, dst := r1, r2
					if g.Age(r2.SegID) < g.Age(r1.SegID) {
						src, dst = r2, r1
					}
					check("independent", mayAliasIndependent(r, src, dst, idx), slowIndependent(r, src, dst))
					continue
				}
			} else if r.InstanceCount() >= 2 {
				check("region-level fwd", mayAliasRegionLevel(r, r1, r2, idx), slowRegionLevel(r, r1, r2))
				if r1 != r2 {
					check("region-level rev", mayAliasRegionLevel(r, r2, r1, idx), slowRegionLevel(r, r2, r1))
				}
			}
			if r1.SegID != r2.SegID {
				continue
			}
			nCommon := commonLen(r1, r2)
			common := r1.Ctx.Loops[:nCommon]
			for level := 0; level < nCommon; level++ {
				check("inner fwd", mayAliasInnerLevel(r, r1, r2, nCommon, level, true, idx),
					slowInnerLevel(r, r1, r2, common, level))
				if r1 != r2 {
					check("inner rev", mayAliasInnerLevel(r, r1, r2, nCommon, level, false, idx),
						slowInnerLevel(r, r2, r1, common, level))
				}
			}
			if r1 != r2 {
				check("same-iter", mayAliasSameIteration(r, r1, r2, nCommon, idx),
					slowSameIteration(r, r1, r2, common))
			}
		}
	}
}
