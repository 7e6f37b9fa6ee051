// Package deps computes the reference-by-reference may-dependences the
// paper's analyses consume (§4.2.1: "Data dependences are may-dependences
// ... analyzed for the region on a reference by reference basis").
//
// Dependences are directed by execution order. For loop regions the
// direction is established per dependence level: region level (cross-
// segment, i.e. cross-iteration of the region loop), each common inner
// loop level, and the innermost same-iteration level (textual order). The
// tests are the classic conservative combination of a dimension-wise
// interval (Banerjee) test and a GCD test on affine subscripts; any
// non-affine subscript dimension (e.g. the paper's subscripted subscript
// K(E)) is assumed to may-alias.
//
// The pair tests run on the dense affine forms precomputed in the region
// index (ir.RegionIndex): each test accumulates the interval and GCD
// refutations directly from positional loop coefficients, with no
// per-pair allocation. Validation caps every nest at ir.MaxAffDepth, so
// the dense forms represent every affine subscript of a validated
// program; this is the only solver.
package deps

import (
	"cmp"
	"slices"
	"sync"

	"refidem/internal/cfg"
	"refidem/internal/ir"
)

// Kind classifies a dependence by the access types of source and sink.
type Kind uint8

const (
	// Flow is write→read (true dependence).
	Flow Kind = iota
	// Anti is read→write.
	Anti
	// Output is write→write.
	Output
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	default:
		return "output"
	}
}

// Dep is one directed may-dependence: Src executes before Dst in some
// sequential execution and they may access the same storage location.
type Dep struct {
	Src  *ir.Ref
	Dst  *ir.Ref
	Kind Kind
	// Cross reports a cross-segment dependence (between different segment
	// instances); intra-segment dependences have Cross == false.
	Cross bool
	// SpecConf, when > 0, is a speculative ensemble member's confidence
	// that this dependence does not actually occur (it stays strictly
	// below 1: confidence 1 would be a soundness claim only the exact
	// members may make, and they refute by omitting the edge). The edge
	// itself is still emitted, so purely sound consumers are unaffected;
	// SpecBy names the member that produced the annotation.
	SpecConf float64
	SpecBy   Member
}

func (d Dep) String() string {
	scope := "intra"
	if d.Cross {
		scope = "cross"
	}
	return scope + " " + d.Kind.String() + ": " + d.Src.String() + " -> " + d.Dst.String()
}

// Analysis holds the dependences of one region. Endpoint indexes are
// stored as CSR groups over reference IDs, so SinksAt/SourcesAt return
// zero-allocation views.
type Analysis struct {
	Region *ir.Region
	All    []Dep

	bySink  []Dep // grouped by Dst.ID
	sinkOff []int32
	bySrc   []Dep // grouped by Src.ID
	srcOff  []int32
	cross   ir.Bits // ref is the sink of a cross-segment dependence

	// emitted dedups directions within the pair currently being tested:
	// [0] src==r1, [1] src==r2; second index is Cross.
	emitted [2][2]bool
	pairR1  *ir.Ref

	// Ensemble state (nil/zero outside AnalyzeWith; see ensemble.go).
	ens     *Ensemble
	mwfVars map[*ir.Var]bool
	obs     []RefObs
}

// SinksAt returns the dependences whose sink is ref. The slice is a view
// into the analysis; do not mutate.
func (a *Analysis) SinksAt(ref *ir.Ref) []Dep {
	return a.bySink[a.sinkOff[ref.ID]:a.sinkOff[ref.ID+1]]
}

// SourcesAt returns the dependences whose source is ref. The slice is a
// view into the analysis; do not mutate.
func (a *Analysis) SourcesAt(ref *ir.Ref) []Dep {
	return a.bySrc[a.srcOff[ref.ID]:a.srcOff[ref.ID+1]]
}

// IsSink reports whether ref is the sink of any dependence.
func (a *Analysis) IsSink(ref *ir.Ref) bool {
	return a.sinkOff[ref.ID] != a.sinkOff[ref.ID+1]
}

// IsCrossSink reports whether ref is the sink of a cross-segment
// dependence (the references Lemma 3 forces to stay speculative).
func (a *Analysis) IsCrossSink(ref *ir.Ref) bool {
	return a.cross.Get(int32(ref.ID))
}

// HasCrossDeps reports whether the region carries any cross-segment data
// dependence, one half of the fully-independent test of Lemma 7.
func (a *Analysis) HasCrossDeps() bool {
	for _, d := range a.All {
		if d.Cross {
			return true
		}
	}
	return false
}

// Conservative returns a copy of the analysis in which every dependence
// is treated as bidirectional (both endpoints become sinks). This models
// a compiler without execution-order direction information — useful as an
// ablation: labeling under it is strictly more conservative, so fewer
// references become idempotent.
func Conservative(a *Analysis) *Analysis {
	out := &Analysis{Region: a.Region}
	for _, d := range a.All {
		out.emitDedupScan(d.Src, d.Dst, d.Cross)
		out.emitDedupScan(d.Dst, d.Src, d.Cross)
	}
	out.buildIndexes()
	return out
}

// emitDedupScan appends a dependence unless an identical one exists; the
// linear scan is fine for the ablation-only Conservative path.
func (a *Analysis) emitDedupScan(src, dst *ir.Ref, cross bool) {
	d := Dep{Src: src, Dst: dst, Kind: kindOf(src, dst), Cross: cross}
	for _, e := range a.All {
		if e == d {
			return
		}
	}
	a.All = append(a.All, d)
}

// kindOf classifies a source/sink access pair.
func kindOf(src, dst *ir.Ref) Kind {
	switch {
	case src.Access == ir.Write && dst.Access == ir.Read:
		return Flow
	case src.Access == ir.Read && dst.Access == ir.Write:
		return Anti
	default:
		return Output
	}
}

var cursorPool = sync.Pool{New: func() any { return &[]int32{} }}

// Analyze computes the may-dependences of the region. The graph must be
// cfg.FromRegion(r) (passed in so callers can share it). It is the
// exact-solver-only degenerate case of AnalyzeWith (ensemble.go).
func Analyze(r *ir.Region, g *cfg.Graph) *Analysis {
	a := &Analysis{Region: r}
	a.analyze(g)
	return a
}

// analyze runs the pair loop, orders the result deterministically, and
// builds the CSR endpoint views.
func (a *Analysis) analyze(g *cfg.Graph) {
	r := a.Region
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
			a.pair(r1, r2, g, idx)
		}
	}
	// Deterministic order for printing and tests.
	slices.SortStableFunc(a.All, func(x, y Dep) int {
		if c := cmp.Compare(x.Src.ID, y.Src.ID); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Dst.ID, y.Dst.ID); c != 0 {
			return c
		}
		return cmp.Compare(x.Kind, y.Kind)
	})
	a.buildIndexes()
}

// buildIndexes fills the CSR endpoint groups and the cross-sink bitset
// from All.
func (a *Analysis) buildIndexes() {
	n := len(a.Region.Refs)
	a.sinkOff = make([]int32, n+1)
	a.srcOff = make([]int32, n+1)
	a.cross = ir.MakeBits(n)
	for _, d := range a.All {
		a.sinkOff[d.Dst.ID+1]++
		a.srcOff[d.Src.ID+1]++
		if d.Cross {
			a.cross.Set(int32(d.Dst.ID))
		}
	}
	for i := 0; i < n; i++ {
		a.sinkOff[i+1] += a.sinkOff[i]
		a.srcOff[i+1] += a.srcOff[i]
	}
	a.bySink = make([]Dep, len(a.All))
	a.bySrc = make([]Dep, len(a.All))
	cp := cursorPool.Get().(*[]int32)
	cursor := *cp
	if cap(cursor) < n {
		cursor = make([]int32, n)
	}
	cursor = cursor[:n]
	copy(cursor, a.sinkOff[:n])
	for _, d := range a.All {
		a.bySink[cursor[d.Dst.ID]] = d
		cursor[d.Dst.ID]++
	}
	copy(cursor, a.srcOff[:n])
	for _, d := range a.All {
		a.bySrc[cursor[d.Src.ID]] = d
		cursor[d.Src.ID]++
	}
	*cp = cursor
	cursorPool.Put(cp)
}

// emit records one directed dependence, deduplicating within the current
// pair (the same direction can be discovered at several loop levels).
// Duplicates across pairs are impossible: each unordered reference pair is
// tested exactly once and the kind is a function of the endpoints.
func (a *Analysis) emit(src, dst *ir.Ref, cross bool) {
	dir := 0
	if src != a.pairR1 {
		dir = 1
	}
	ci := 0
	if cross {
		ci = 1
	}
	if a.emitted[dir][ci] {
		return
	}
	a.emitted[dir][ci] = true
	d := Dep{Src: src, Dst: dst, Kind: kindOf(src, dst), Cross: cross}
	a.All = append(a.All, d)
	if a.ens != nil {
		a.annotate(&a.All[len(a.All)-1])
	}
}

// pair tests one unordered reference pair in every direction and level.
func (a *Analysis) pair(r1, r2 *ir.Ref, g *cfg.Graph, idx *ir.RegionIndex) {
	if a.ens != nil && a.ens.Range && a.rangeRefutesPair(r1, r2, idx) {
		// Sound refutation of every level test at once: the whole pair
		// short-circuits past the exact solver.
		return
	}
	a.pairR1 = r1
	a.emitted = [2][2]bool{}
	r := a.Region
	if r.Kind == ir.CFGRegion {
		if r1.SegID != r2.SegID {
			if !g.OnCommonPath(r1.SegID, r2.SegID) {
				return
			}
			src, dst := r1, r2
			if g.Age(r2.SegID) < g.Age(r1.SegID) {
				src, dst = r2, r1
			}
			if mayAliasIndependent(r, src, dst, idx) {
				a.emit(src, dst, true)
			}
			return
		}
		a.intraSegment(r1, r2, idx)
		return
	}

	// Loop region. Region level first: iterations are the segments.
	n := r.InstanceCount()
	if n >= 2 {
		if mayAliasRegionLevel(r, r1, r2, idx) {
			a.emit(r1, r2, true)
		}
		if r1 != r2 {
			if mayAliasRegionLevel(r, r2, r1, idx) {
				a.emit(r2, r1, true)
			}
		}
	}
	if r1 != r2 || r1.Access == ir.Write {
		a.intraSegment(r1, r2, idx)
	}
}

// intraSegment emits same-instance dependences between r1 and r2 at each
// common loop level and at the same-iteration level.
func (a *Analysis) intraSegment(r1, r2 *ir.Ref, idx *ir.RegionIndex) {
	if r1.SegID != r2.SegID {
		return
	}
	nCommon := commonLen(r1, r2)
	// Cross-iteration of each common inner loop.
	for level := 0; level < nCommon; level++ {
		if mayAliasInnerLevel(a.Region, r1, r2, nCommon, level, true, idx) {
			a.emit(r1, r2, false)
		}
		if r1 != r2 && mayAliasInnerLevel(a.Region, r1, r2, nCommon, level, false, idx) {
			a.emit(r2, r1, false)
		}
	}
	// Same iteration of all common loops: textual order directs the edge.
	if r1 == r2 {
		return
	}
	if mayAliasSameIteration(a.Region, r1, r2, nCommon, idx) {
		src, dst := r1, r2
		if r2.Pos < r1.Pos {
			src, dst = r2, r1
		}
		a.emit(src, dst, false)
	}
}

// commonLen returns the length of the shared enclosing-loop prefix of two
// references.
func commonLen(r1, r2 *ir.Ref) int {
	n := 0
	for n < len(r1.Ctx.Loops) && n < len(r2.Ctx.Loops) && r1.Ctx.Loops[n].ID == r2.Ctx.Loops[n].ID {
		n++
	}
	return n
}

// --- dense alias testing ----------------------------------------------

// acc accumulates the interval and GCD tests of one subscript-dimension
// equation diff == 0 (diff in solver variables).
type acc struct {
	lo, hi int64 // interval of the variable part
	g      int64 // gcd of the non-zero coefficients
	c      int64 // constant part
}

// add introduces a solver variable with the given coefficient and
// inclusive bounds.
func (a *acc) add(coeff, lo, hi int64) {
	if coeff == 0 {
		return
	}
	if coeff > 0 {
		a.lo += coeff * lo
		a.hi += coeff * hi
	} else {
		a.lo += coeff * hi
		a.hi += coeff * lo
	}
	a.g = gcd(a.g, abs64(coeff))
}

// mayZero reports whether diff == 0 may have a solution within bounds;
// false is a refutation.
func (a *acc) mayZero() bool {
	if a.lo+a.c > 0 || a.hi+a.c < 0 {
		return false
	}
	if a.g != 0 && a.c%a.g != 0 {
		return false
	}
	return true
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// loopRange returns the min and max values the loop variable takes.
func loopRange(l ir.LoopInfo) (int64, int64) {
	trips := l.Trips()
	if trips == 0 {
		return int64(l.From), int64(l.From)
	}
	last := int64(l.From) + int64(trips-1)*int64(l.Step)
	lo, hi := int64(l.From), last
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

// addSideLoops introduces the reference's own enclosing loops from depth
// `skip` on as independent solver variables with the given sign.
func (a *acc) addSideLoops(ref *ir.Ref, f ir.AffForm, sign int64, skip int) {
	for k := skip; k < len(ref.Ctx.Loops); k++ {
		lo, hi := loopRange(ref.Ctx.Loops[k])
		a.add(sign*f.Depth[k], lo, hi)
	}
}

// mayAliasRegionLevel tests whether src (in an older iteration) and dst
// (in a strictly younger iteration) of a loop region may access the same
// location. Iterations are numbered t = 0..n-1 in execution order, with
// index value From + Step*t; the younger side is shifted by d >= 1.
func mayAliasRegionLevel(r *ir.Region, src, dst *ir.Ref, idx *ir.RegionIndex) bool {
	n := int64(r.InstanceCount())
	if n < 2 {
		return false
	}
	sa, da := idx.Aff[src.ID], idx.Aff[dst.ID]
	for dim := 0; dim < len(src.Subs); dim++ {
		sf, df := sa[dim], da[dim]
		if !sf.OK || !df.OK {
			continue // non-affine: cannot refute this dimension
		}
		var eq acc
		// index_src = From + Step*t ; index_dst = From + Step*(t + d)
		eq.c = sf.Const - df.Const + (sf.Reg-df.Reg)*int64(r.From)
		eq.add((sf.Reg-df.Reg)*int64(r.Step), 0, n-2)
		eq.add(-df.Reg*int64(r.Step), 1, n-1)
		eq.addSideLoops(src, sf, 1, 0)
		eq.addSideLoops(dst, df, -1, 0)
		if !eq.mayZero() {
			return false
		}
	}
	return true
}

// mayAliasInnerLevel tests a cross-iteration dependence of the common
// inner loop at the given level, with all outer common loops at equal
// iterations. srcEarlier selects the direction: when true, r1 is the
// source executing in an earlier iteration of the level loop.
func mayAliasInnerLevel(r *ir.Region, r1, r2 *ir.Ref, nCommon, level int, srcEarlier bool, idx *ir.RegionIndex) bool {
	src, dst := r1, r2
	if !srcEarlier {
		src, dst = r2, r1
	}
	l := r1.Ctx.Loops[level]
	trips := int64(l.Trips())
	if trips < 2 {
		return false
	}
	sa, da := idx.Aff[src.ID], idx.Aff[dst.ID]
	for dim := 0; dim < len(src.Subs); dim++ {
		sf, df := sa[dim], da[dim]
		if !sf.OK || !df.OK {
			continue
		}
		var eq acc
		eq.c = sf.Const - df.Const
		addRegionIndexShared(&eq, r, sf, df)
		// Outer common loops: shared variables.
		for k := 0; k < level; k++ {
			lo, hi := loopRange(r1.Ctx.Loops[k])
			eq.add(sf.Depth[k]-df.Depth[k], lo, hi)
		}
		// Level loop: dst iterates later: value_dst = value_src + Step*d, d>=1.
		lo, hi := loopRange(l)
		eq.add(sf.Depth[level]-df.Depth[level], lo, hi)
		eq.add(-df.Depth[level]*int64(l.Step), 1, trips-1)
		// Remaining loops per side are independent.
		eq.addSideLoops(src, sf, 1, level+1)
		eq.addSideLoops(dst, df, -1, level+1)
		if !eq.mayZero() {
			return false
		}
	}
	return true
}

// mayAliasSameIteration tests equality with all common loops at the same
// iteration and remaining loops independent.
func mayAliasSameIteration(r *ir.Region, r1, r2 *ir.Ref, nCommon int, idx *ir.RegionIndex) bool {
	sa, da := idx.Aff[r1.ID], idx.Aff[r2.ID]
	for dim := 0; dim < len(r1.Subs); dim++ {
		sf, df := sa[dim], da[dim]
		if !sf.OK || !df.OK {
			continue
		}
		var eq acc
		eq.c = sf.Const - df.Const
		addRegionIndexShared(&eq, r, sf, df)
		for k := 0; k < nCommon; k++ {
			lo, hi := loopRange(r1.Ctx.Loops[k])
			eq.add(sf.Depth[k]-df.Depth[k], lo, hi)
		}
		eq.addSideLoops(r1, sf, 1, nCommon)
		eq.addSideLoops(r2, df, -1, nCommon)
		if !eq.mayZero() {
			return false
		}
	}
	return true
}

// mayAliasIndependent tests equality with every loop variable independent
// on each side (used for cross-segment pairs in CFG regions).
func mayAliasIndependent(r *ir.Region, src, dst *ir.Ref, idx *ir.RegionIndex) bool {
	sa, da := idx.Aff[src.ID], idx.Aff[dst.ID]
	for dim := 0; dim < len(src.Subs); dim++ {
		sf, df := sa[dim], da[dim]
		if !sf.OK || !df.OK {
			continue
		}
		var eq acc
		eq.c = sf.Const - df.Const
		eq.addSideLoops(src, sf, 1, 0)
		eq.addSideLoops(dst, df, -1, 0)
		if !eq.mayZero() {
			return false
		}
	}
	return true
}

// addRegionIndexShared binds the region index of a loop region to one
// shared solver variable on both sides (intra-segment tests happen within
// a single iteration of the region loop).
func addRegionIndexShared(eq *acc, r *ir.Region, sf, df ir.AffForm) {
	if r.Kind != ir.LoopRegion {
		return
	}
	n := int64(r.InstanceCount())
	eq.c += (sf.Reg - df.Reg) * int64(r.From)
	eq.add((sf.Reg-df.Reg)*int64(r.Step), 0, n-1)
}
