package deps

// This file holds the map-based linear alias tests, the oracle of the
// dense solver in deps.go: they lower subscripts through ir.AffineOf and
// name-keyed maps with no depth limit, so they share no code with the
// positional forms. TestDenseSolverMatchesSlow keeps the two in
// lockstep.

import (
	"fmt"

	"refidem/internal/ir"
)

// linExpr is c + sum(terms[v] * v) over solver variables.
type linExpr struct {
	c     int64
	terms map[string]int64
}

func (e linExpr) add(o linExpr, sign int64) linExpr {
	out := linExpr{c: e.c + sign*o.c, terms: map[string]int64{}}
	for k, v := range e.terms {
		out.terms[k] += v
	}
	for k, v := range o.terms {
		out.terms[k] += sign * v
	}
	for k, v := range out.terms {
		if v == 0 {
			delete(out.terms, k)
		}
	}
	return out
}

// env maps the program's index-variable names to solver linExprs, plus
// solver-variable bounds.
type env struct {
	subst  map[string]linExpr
	bounds map[string][2]int64
}

func newEnv() *env {
	return &env{subst: map[string]linExpr{}, bounds: map[string][2]int64{}}
}

// freeVar introduces a solver variable with the given inclusive bounds.
func (e *env) freeVar(name string, lo, hi int64) linExpr {
	e.bounds[name] = [2]int64{lo, hi}
	return linExpr{terms: map[string]int64{name: 1}}
}

// bind maps a program index name to a solver expression.
func (e *env) bind(idx string, le linExpr) { e.subst[idx] = le }

// lower converts an affine subscript into a solver linExpr under the
// substitution. Unbound names (should not happen for validated programs)
// become fresh unbounded-ish variables, keeping the test conservative.
func (e *env) lower(a ir.Affine, side string) linExpr {
	out := linExpr{c: a.Const, terms: map[string]int64{}}
	for idx, coeff := range a.Coeff {
		le, ok := e.subst[idx]
		if !ok {
			le = e.freeVar("unbound_"+side+"_"+idx, -1<<30, 1<<30)
			e.bind(idx, le)
		}
		out.c += coeff * le.c
		for v, c := range le.terms {
			out.terms[v] += coeff * c
		}
	}
	for k, v := range out.terms {
		if v == 0 {
			delete(out.terms, k)
		}
	}
	return out
}

// mayZero applies the interval and GCD tests; it returns false only when
// the equation expr == 0 provably has no solution within bounds.
func mayZero(e linExpr, bounds map[string][2]int64) bool {
	lo, hi := e.c, e.c
	for v, c := range e.terms {
		b := bounds[v]
		if c > 0 {
			lo += c * b[0]
			hi += c * b[1]
		} else {
			lo += c * b[1]
			hi += c * b[0]
		}
	}
	if lo > 0 || hi < 0 {
		return false
	}
	var g int64
	for _, c := range e.terms {
		g = gcd(g, abs64(c))
	}
	if g != 0 && e.c%g != 0 {
		return false
	}
	return true
}

// bindSideLoops introduces independent solver variables for every loop
// enclosing the reference, skipping the first `skip` loops (already bound
// as shared/level variables).
func bindSideLoops(e *env, ref *ir.Ref, side string, skip int) {
	for i := skip; i < len(ref.Ctx.Loops); i++ {
		l := ref.Ctx.Loops[i]
		lo, hi := loopRange(l)
		e.bind(l.Index, e.freeVar(fmt.Sprintf("%s_%d_%s", side, i, l.Index), lo, hi))
	}
}

// testDims checks every affine dimension pair for simultaneous equality.
// srcEnv and dstEnv carry the per-side substitutions; shared bounds are
// merged. Non-affine dimensions cannot refute.
func testDims(src, dst *ir.Ref, srcEnv, dstEnv *env) bool {
	for dim := 0; dim < len(src.Subs); dim++ {
		sa, sOK := ir.AffineOf(src.Subs[dim])
		da, dOK := ir.AffineOf(dst.Subs[dim])
		if !sOK || !dOK {
			continue // non-affine: cannot refute this dimension
		}
		diff := srcEnv.lower(sa, "s").add(dstEnv.lower(da, "d"), -1)
		// lower may add fresh unbound vars; gather bounds afterwards.
		bounds := map[string][2]int64{}
		for k, v := range srcEnv.bounds {
			bounds[k] = v
		}
		for k, v := range dstEnv.bounds {
			bounds[k] = v
		}
		if !mayZero(diff, bounds) {
			return false
		}
	}
	return true
}

// slowRegionLevel is the map-based form of mayAliasRegionLevel.
func slowRegionLevel(r *ir.Region, src, dst *ir.Ref) bool {
	n := int64(r.InstanceCount())
	if n < 2 {
		return false
	}
	srcEnv, dstEnv := newEnv(), newEnv()
	ts := srcEnv.freeVar("t_s", 0, n-2)
	d := srcEnv.freeVar("t_shift", 1, n-1)
	// index_src = From + Step*t_s ; index_dst = From + Step*(t_s + d)
	idxSrc := linExpr{c: int64(r.From), terms: map[string]int64{}}
	for v, c := range ts.terms {
		idxSrc.terms[v] = c * int64(r.Step)
	}
	idxDst := linExpr{c: int64(r.From), terms: map[string]int64{}}
	for v, c := range ts.terms {
		idxDst.terms[v] += c * int64(r.Step)
	}
	for v, c := range d.terms {
		idxDst.terms[v] += c * int64(r.Step)
	}
	srcEnv.bind(r.Index, idxSrc)
	// The dst env shares the solver variables of ts and d.
	for k, v := range srcEnv.bounds {
		dstEnv.bounds[k] = v
	}
	dstEnv.bind(r.Index, idxDst)
	bindSideLoops(srcEnv, src, "s", 0)
	bindSideLoops(dstEnv, dst, "d", 0)
	return testDims(src, dst, srcEnv, dstEnv)
}

// slowInnerLevel is the map-based form of mayAliasInnerLevel; src and dst
// are already ordered (dst iterates later in the level loop).
func slowInnerLevel(r *ir.Region, src, dst *ir.Ref, common []ir.LoopInfo, level int) bool {
	srcEnv, dstEnv := newEnv(), newEnv()
	bindRegionIndexShared(r, srcEnv, dstEnv)
	// Outer common loops: shared variables.
	for i := 0; i < level; i++ {
		l := common[i]
		lo, hi := loopRange(l)
		v := srcEnv.freeVar(fmt.Sprintf("c_%d_%s", i, l.Index), lo, hi)
		srcEnv.bind(l.Index, v)
		dstEnv.bounds[fmt.Sprintf("c_%d_%s", i, l.Index)] = [2]int64{lo, hi}
		dstEnv.bind(l.Index, v)
	}
	// Level loop: dst iterates later: value_dst = value_src + Step*d, d>=1.
	l := common[level]
	lo, hi := loopRange(l)
	trips := int64(l.Trips())
	if trips < 2 {
		return false
	}
	base := srcEnv.freeVar(fmt.Sprintf("L%d_%s", level, l.Index), lo, hi)
	shift := srcEnv.freeVar(fmt.Sprintf("L%d_d", level), 1, trips-1)
	srcEnv.bind(l.Index, base)
	for k, v := range srcEnv.bounds {
		dstEnv.bounds[k] = v
	}
	later := linExpr{c: 0, terms: map[string]int64{}}
	for v, c := range base.terms {
		later.terms[v] += c
	}
	for v, c := range shift.terms {
		later.terms[v] += c * int64(l.Step)
	}
	dstEnv.bind(l.Index, later)
	// Remaining loops per side are independent.
	bindSideLoops(srcEnv, src, "s", level+1)
	bindSideLoops(dstEnv, dst, "d", level+1)
	return testDims(src, dst, srcEnv, dstEnv)
}

// slowSameIteration is the map-based form of mayAliasSameIteration.
func slowSameIteration(r *ir.Region, r1, r2 *ir.Ref, common []ir.LoopInfo) bool {
	srcEnv, dstEnv := newEnv(), newEnv()
	bindRegionIndexShared(r, srcEnv, dstEnv)
	for i, l := range common {
		lo, hi := loopRange(l)
		name := fmt.Sprintf("c_%d_%s", i, l.Index)
		v := srcEnv.freeVar(name, lo, hi)
		srcEnv.bind(l.Index, v)
		dstEnv.bounds[name] = [2]int64{lo, hi}
		dstEnv.bind(l.Index, v)
	}
	bindSideLoops(srcEnv, r1, "s", len(common))
	bindSideLoops(dstEnv, r2, "d", len(common))
	return testDims(r1, r2, srcEnv, dstEnv)
}

// slowIndependent is the map-based form of mayAliasIndependent.
func slowIndependent(r *ir.Region, src, dst *ir.Ref) bool {
	srcEnv, dstEnv := newEnv(), newEnv()
	bindSideLoops(srcEnv, src, "s", 0)
	bindSideLoops(dstEnv, dst, "d", 0)
	return testDims(src, dst, srcEnv, dstEnv)
}

// bindRegionIndexShared binds the region index of a loop region to one
// shared solver variable on both sides (intra-segment tests happen within
// a single iteration of the region loop).
func bindRegionIndexShared(r *ir.Region, srcEnv, dstEnv *env) {
	if r.Kind != ir.LoopRegion {
		return
	}
	n := int64(r.InstanceCount())
	t := srcEnv.freeVar("t_shared", 0, n-1)
	idx := linExpr{c: int64(r.From), terms: map[string]int64{}}
	for v, c := range t.terms {
		idx.terms[v] = c * int64(r.Step)
	}
	srcEnv.bind(r.Index, idx)
	dstEnv.bounds["t_shared"] = srcEnv.bounds["t_shared"]
	dstEnv.bind(r.Index, idx)
}
